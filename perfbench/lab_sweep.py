"""The lab-sweep workload: the `verify` suites at research size.

Runs, through the public functions of `gevreymhd.lab`:

- the six decomposition identities and the cancellation check at kmax=6
  on Grid(20), for m = 1, 2, 3, on two seeded random-band states;
- the weighted energy balance on Taylor-Green at n=32;
- the four lemma constants on a seeded batch of small random-band pairs;
- the exhaustive scalar sweep at its cap of 200.

It writes the raw outcomes as JSON; `run.py` holds them to the pass
thresholds of `gevreymhd verify`.

Usage: python3 perfbench/lab_sweep.py SEED OUT.json
"""

import json
import sys

from gevreymhd.lab import (
    KNOWN_IDENTITIES,
    KNOWN_LEMMAS,
    cancellation_residual,
    energy_balance_check,
    estimate_constant,
    scalar_inequality_suite,
    triad_decomposition_check,
)
from gevreymhd.operators import MultiplierSpec, curl
from gevreymhd.spectral import Grid, random_band, taylor_green_mhd

KMAX = 6
IDENTITY_STATES = 2
BALANCE_DTS = (1e-2, 5e-3, 2.5e-3)
LEMMA_BATCH = 20
SCALAR_BOUND = 200


def build_inputs(seed: int) -> dict:
    """Every field the sweep reads, generated from the benchmark seed."""
    states = []
    for i in range(IDENTITY_STATES):
        st = random_band(Grid(20), seed=IDENTITY_STATES * seed + i, kmax=KMAX,
                         amplitude=1.0)
        states.append({"u": st.u, "h": st.h, "omega": curl(st.u),
                       "current": curl(st.h)})
    batch = []
    for i in range(LEMMA_BATCH):
        small = random_band(Grid(8), seed=1000 * (seed + 1) + i, kmax=2,
                            amplitude=0.5)
        batch.append((curl(small.u), curl(small.h)))
    return {
        "states": states,
        "balance_state": taylor_green_mhd(Grid(32)),
        "lemma_batch": batch,
    }


def sweep(inp: dict) -> dict:
    out = {"identity": {}, "cancellation": {}, "lemma": {}}
    for i, st in enumerate(inp["states"]):
        for m in (1, 2, 3):
            spec = MultiplierSpec(m=m, r=1.5, tau=0.2, s=1.5)
            for tag in KNOWN_IDENTITIES:
                rep = triad_decomposition_check(
                    st["u"], st["h"], st["omega"], st["current"], spec, tag,
                    kmax=KMAX,
                )
                out["identity"][f"state{i}-m{m}-{tag}"] = rep.residual
            out["cancellation"][f"state{i}-m{m}"] = cancellation_residual(
                st["u"], st["omega"], spec
            )
    balance = energy_balance_check(
        inp["balance_state"], MultiplierSpec(m=3, r=1.0, tau=0.1, s=1.0),
        BALANCE_DTS,
    )
    out["balance_orders"] = balance["orders"]
    # energy_balance_check takes one half step and one full step per dt.
    out["rk4_steps"] = 2 * len(BALANCE_DTS)
    lemma_spec = MultiplierSpec(m=1, r=3.6, tau=0.1, s=1.0)
    for lemma in KNOWN_LEMMAS:
        out["lemma"][lemma] = estimate_constant(lemma, inp["lemma_batch"],
                                                lemma_spec)
    reports = scalar_inequality_suite(SCALAR_BOUND, (1.0, 1.5, 2.0))
    out["scalar_violations"] = {k: rep.violations for k, rep in reports.items()}
    return out


def main(argv) -> int:
    seed, path = int(argv[1]), argv[2]
    result = sweep(build_inputs(seed))
    result["status"] = "completed"
    with open(path, "w") as fh:
        json.dump(result, fh)
    print("status: completed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
