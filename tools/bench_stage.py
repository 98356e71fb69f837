"""Time one RK4 stage's layers at n = 16, 32 and 64 and record the times.

For each grid it times the Taylor-Green `init_state`, the forward transform
of the two advection products (six components) as the solver makes it, one
`rhs_primitive` and one `step_rk4`.  After one warm-up call, a layer is
called for BUDGET_S seconds, and at least MIN_CALLS times, so a fast layer
gets hundreds of calls and its median is not one of a few noisy ones.  The
median and quartiles (`statistics.quantiles`) of each layer, in ms, with
its call count, go under LABEL into OUT (BENCH_stage.json at the
checkout's root by default), with the commit of the checkout that holds
the imported package, the numpy version and the CPU count; other labels in
OUT are kept, so two checkouts' numbers can stand side by side.

    PYTHONPATH=src python tools/bench_stage.py LABEL [OUT]
"""

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gevreymhd import spectral
from gevreymhd.solver import rhs_primitive, step_rk4
from gevreymhd.spectral import Grid, init_state, to_physical

BUDGET_S = 1.0
MIN_CALLS = 9
SIZES = (16, 32, 64)


def time_ms(call) -> dict:
    """Median and quartiles, in ms, of the calls BUDGET_S allows."""
    call()
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < MIN_CALLS or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"calls": len(times), "median": round(1e3 * median, 4),
            "q1": round(1e3 * q1, 4), "q3": round(1e3 * q3, 4)}


def main(label: str, out: Path) -> None:
    checkout = Path(spectral.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True).stdout.strip()
    times = {}
    for n in SIZES:
        grid = Grid(n)
        state = init_state("taylor-green", grid)
        samples = to_physical(state.u, state.h)
        times[f"n{n}"] = {
            "init_state": time_ms(lambda: init_state("taylor-green", grid)),
            "product_forward": time_ms(
                lambda: spectral._band_forward(samples)),
            "rhs_primitive": time_ms(lambda: rhs_primitive(state)),
            "step_rk4": time_ms(lambda: step_rk4(state, 0.005)),
        }
        print(n, {k: v["median"] for k, v in times[f"n{n}"].items()},
              flush=True)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[label] = {"commit": commit, "numpy": np.__version__,
                     "python": platform.python_version(),
                     "cpus": spectral._cpu_count(), "budget_s": BUDGET_S,
                     "min_calls": MIN_CALLS, "unit": "ms",
                     "statistic": "median and quartiles", "times": times}
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    main(sys.argv[1],
         Path(sys.argv[2]) if len(sys.argv) > 2 else root / "BENCH_stage.json")
