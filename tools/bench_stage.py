"""Time one RK4 stage's layers at n = 16, 32 and 64 and record the times.

For the Taylor-Green state of each grid it times the forward transform of
the two advection products (six components) as the solver makes it, one
`rhs_primitive` and one `step_rk4`, each as the median of RUNS calls after
one warm-up call.  The times go under LABEL into OUT (BENCH_stage.json at
the checkout's root by default), with the commit of the checkout that holds
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
from gevreymhd.spectral import Grid, taylor_green_mhd, to_physical

RUNS = 9
SIZES = (16, 32, 64)


def median_ms(call) -> float:
    call()
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 3)


def main(label: str, out: Path) -> None:
    checkout = Path(spectral.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True).stdout.strip()
    times = {}
    for n in SIZES:
        state = taylor_green_mhd(Grid(n))
        samples = to_physical(state.u, state.h)
        times[f"n{n}"] = {
            "product_forward_ms": median_ms(
                lambda: spectral._band_forward(samples)),
            "rhs_primitive_ms": median_ms(lambda: rhs_primitive(state)),
            "step_rk4_ms": median_ms(lambda: step_rk4(state, 0.005)),
        }
        print(n, times[f"n{n}"], flush=True)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[label] = {"commit": commit, "numpy": np.__version__,
                     "python": platform.python_version(),
                     "cpus": spectral._cpu_count(), "runs": RUNS,
                     "statistic": "median", "times": times}
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    main(sys.argv[1],
         Path(sys.argv[2]) if len(sys.argv) > 2 else root / "BENCH_stage.json")
