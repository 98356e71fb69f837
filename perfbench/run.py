"""gevreymhd benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a closed loop with one client: one workload iteration at a time,
each command of it a single-threaded child process, the next started only
after the previous one exits, for about S seconds (at least one
iteration).  Every iteration's outputs are checked; see README.md.

--trace 0 reports the end-to-end metrics (medians over the iterations).
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics from the spans `tracer.py` records, plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REF = BENCH / "ref"

SETUP_TRIALS = 2  # set-up probes before each untraced iteration
# Roundoff tolerances for the output checks (README.md, "Output checks").
PHYSICS_RTOL = 1e-10   # of each column's largest reference magnitude
RADIUS_RTOL = 1e-8     # of each reference value
DRIFT_BOUND = 5e-5     # relative energy / cross-helicity drift, as the tests pin
PHYSICS_COLUMNS = ("t", "energy", "cross_helicity", "bkm_integrand",
                   "grad_sum", "hr_norm", "x_norm", "y_norm")
RADIUS_COLUMNS = ("tau", "tau_fit", "tau_lower")
# `gevreymhd verify` pass thresholds.
IDENTITY_MAX = 1e-11
CANCELLATION_MAX = 1e-12
BALANCE_ORDER_MIN = 1.9


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


# --------------------------------------------------------------- workloads

TG64_CFG = """\
[grid]
n = 64
[initial]
kind = taylor-green
[time]
t_end = {t_end}
dt = 0.005
cadence = 2
[gevrey]
r = 3.0
tau0 = 0.1
[radius]
c = 1.0
[output]
directory = {directory}
checkpoint = state.gmhd
spectra = spec
"""

RB16_CFG = """\
[grid]
n = 16
[initial]
kind = random-band
seed = {seed}
kmax = {kmax}
amplitude = {amplitude}
[time]
t_end = {t_end!r}
cfl = {cfl}
cadence = 1
[gevrey]
r = 3.0
tau0 = 0.1
[radius]
c = fit
[output]
directory = out
"""


class Workload:
    """One set of inputs: its commands, its set-up probe and its checks.

    A command is a tracer argument list: ["cli", ARGS...] for the gevreymhd
    CLI or ["script", PATH, ARGS...] for a benchmark script.
    """

    name = ""
    why = ""
    outputs = ()  # files compared byte for byte between traced and untraced

    def prepare(self, d: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self, seed: int) -> list:
        raise NotImplementedError

    def setup_probe(self, seed: int) -> list:
        raise NotImplementedError

    def check(self, d: Path, seed: int, problems: list) -> int:
        """Append every failed check to problems; return the RK4 steps run."""
        raise NotImplementedError


class TG64RunResume(Workload):
    name = "tg64-run-resume"
    why = ("stepping and FFT at a working set far beyond L2; checkpoint "
           "written twice and read once")
    outputs = ("run/series.csv", "resume/series.csv")
    steps = 4  # 2 steps of dt = 0.005 in each command

    def prepare(self, d, seed):
        (d / "run.cfg").write_text(TG64_CFG.format(t_end=0.01, directory="run"))
        (d / "resume.cfg").write_text(
            TG64_CFG.format(t_end=0.02, directory="resume"))

    def commands(self, seed):
        return [["cli", "run", "run.cfg"],
                ["cli", "resume", "run/state.gmhd", "resume.cfg"]]

    def setup_probe(self, seed):
        return ["run", "run.cfg"]

    def check(self, d, seed, problems):
        run = read_series(d / "run/series.csv", problems)
        resumed = read_series(d / "resume/series.csv", problems)
        if run is None or resumed is None:
            return self.steps
        compare_reference(self.name, "*", "run/series.csv", run, problems)
        compare_reference(self.name, "*", "resume/series.csv", resumed,
                          problems)
        check_drift(run["rows"] + resumed["rows"], problems)
        t_ck = check_roundtrip(d / "run/state.gmhd", problems)
        check_roundtrip(d / "resume/state.gmhd", problems)
        if resumed["rows"][0][0] != t_ck:
            problems.append(f"resumed series starts at t={resumed['rows'][0][0]!r}, "
                            f"checkpoint time is {t_ck!r}")
        for name in ("run/spec_final.csv", "resume/spec_final.csv"):
            if not (d / name).is_file():
                problems.append(f"{name} missing")
        return self.steps


class RB16DenseFit(Workload):
    name = "rb16-dense-fit"
    why = ("cheap n=16 steps with a sample every step and c = fit, so "
           "diagnostics and the O(S^2) radius tracker take a clear share")
    outputs = ("out/series.csv",)
    kmax, amplitude, cfl = 2, 0.05, 0.05
    # t_end is this many initial CFL steps, so the work per run varies
    # little with the seed (fixed t_end = 1 gave 149-183 steps on seeds 0-23).
    steps = 170

    def prepare(self, d, seed):
        from gevreymhd.solver import cfl_timestep
        from gevreymhd.spectral import Grid, random_band

        st = random_band(Grid(16), seed=seed, kmax=self.kmax,
                         amplitude=self.amplitude)
        t_end = self.steps * cfl_timestep(st, self.cfl)
        (d / "run.cfg").write_text(RB16_CFG.format(
            seed=seed, kmax=self.kmax, amplitude=self.amplitude, t_end=t_end,
            cfl=self.cfl))

    def commands(self, seed):
        return [["cli", "run", "run.cfg"]]

    def setup_probe(self, seed):
        return ["run", "run.cfg"]

    def check(self, d, seed, problems):
        series = read_series(d / "out/series.csv", problems)
        if series is None:
            return 1
        compare_reference(self.name, str(seed), "out/series.csv", series,
                          problems)
        check_drift(series["rows"], problems)
        return len(series["rows"]) - 1  # cadence 1: one row per step


class LabSweep(Workload):
    name = "lab-sweep"
    why = ("the verify suites at research size: triad marginals and the "
           "prognostic curl stepper, no primitive stepper or radius tracker")
    outputs = ("lab.json",)

    def prepare(self, d, seed):
        pass

    def commands(self, seed):
        return [["script", str(BENCH / "lab_sweep.py"), str(seed), "lab.json"]]

    def setup_probe(self, seed):
        return ["lab", str(seed)]

    def check(self, d, seed, problems):
        try:
            res = json.loads((d / "lab.json").read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"lab.json unreadable: {exc}")
            return 1
        for key, value in res["identity"].items():
            if not value < IDENTITY_MAX:
                problems.append(f"identity {key} residual {value:.3e}")
        for key, value in res["cancellation"].items():
            if not value < CANCELLATION_MAX:
                problems.append(f"cancellation {key} residual {value:.3e}")
        for key, count in res["scalar_violations"].items():
            if count != 0:
                problems.append(f"scalar {key}: {count} violations")
        orders = res["balance_orders"]
        if not orders or not min(orders) >= BALANCE_ORDER_MIN:
            problems.append(f"balance orders {orders}")
        for key, value in res["lemma"].items():
            if not (math.isfinite(value) and value > 0):
                problems.append(f"lemma {key} constant {value!r}")
        return res["rk4_steps"]


WORKLOADS = {w.name: w for w in (TG64RunResume(), RB16DenseFit(), LabSweep())}


# ------------------------------------------------------------ output checks

def read_series(path: Path, problems: list):
    """Parse a series.csv into float rows, checking its header."""
    try:
        lines = path.read_text().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name} unreadable: {exc}")
        return None
    header = lines[0].split(",")
    if header[:len(PHYSICS_COLUMNS)] != list(PHYSICS_COLUMNS) or \
            header[len(PHYSICS_COLUMNS):] != list(RADIUS_COLUMNS):
        problems.append(f"{path.name}: unexpected header {lines[0]!r}")
        return None
    if not rows:
        problems.append(f"{path.name}: no rows")
        return None
    return {"rows": rows}


def _reference(workload: str) -> dict:
    path = REF / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def compare_reference(workload, key, name, series, problems) -> None:
    """Physics columns to roundoff, radius columns to RADIUS_RTOL."""
    ref = _reference(workload).get(key, {}).get(name)
    if ref is None:
        return  # no stored reference for this seed: invariant checks only
    if len(series["rows"]) != ref["nrows"]:
        problems.append(f"{name}: {len(series['rows'])} rows, reference "
                        f"has {ref['nrows']}")
        return
    ref_rows = {int(i): [float(x) for x in line.split(",")]
                for i, line in ref["rows"].items()}
    npc = len(PHYSICS_COLUMNS)
    scale = [max(abs(r[c]) for r in ref_rows.values()) for c in range(npc)]
    scale[2] = max(scale[2], scale[1])  # cross-helicity against the energy
    for i, want in ref_rows.items():
        got = series["rows"][i]
        for c, column in enumerate(PHYSICS_COLUMNS + RADIUS_COLUMNS):
            a, b = got[c], want[c]
            if math.isnan(a) or math.isnan(b):
                ok = math.isnan(a) and math.isnan(b)
            elif c < npc:
                ok = abs(a - b) <= PHYSICS_RTOL * scale[c]
            else:
                ok = abs(a - b) <= RADIUS_RTOL * abs(b)
            if not ok:
                problems.append(f"{name} row {i} {column}: {a!r} != "
                                f"reference {b!r}")


def check_drift(rows, problems) -> None:
    e0, hc0 = rows[0][1], rows[0][2]
    de = max(abs(r[1] - e0) for r in rows)
    dhc = max(abs(r[2] - hc0) for r in rows)
    if not (de <= DRIFT_BOUND * e0 and dhc <= DRIFT_BOUND * e0):
        problems.append(f"drift: energy {de / e0:.3e}, cross-helicity "
                        f"{dhc / e0:.3e} relative to E0")


def check_roundtrip(path: Path, problems) -> float:
    """Loading and saving a checkpoint must reproduce it byte for byte.

    Returns the checkpoint's time, NaN when it cannot be read.
    """
    from gevreymhd.checkpoint import load_checkpoint, save_checkpoint

    name = f"{path.parent.name}/{path.name}"
    try:
        state, params, tau = load_checkpoint(path)
    except ValueError as exc:
        problems.append(f"{name} unreadable: {exc}")
        return math.nan
    again = path.with_name(path.name + ".again")
    save_checkpoint(again, state, params, tau)
    if again.read_bytes() != path.read_bytes():
        problems.append(f"{name}: load + save is not byte-identical")
    again.unlink()
    return state.t


# --------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GEVREYMHD_OUTPUT_DIR", None)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def launch(argv, cwd: Path, log: Path) -> tuple:
    """Run python3 ARGV to exit; return (wall s, peak RSS MB, exit code).

    The peak RSS is this child's own, from os.wait4, so it cannot be hidden
    by an earlier, larger child as RUSAGE_CHILDREN would.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd,
                                env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def command_argv(cmd, spans=None) -> list:
    if spans is not None:
        return [str(BENCH / "tracer.py"), str(spans), *cmd]
    if cmd[0] == "cli":
        return ["-m", "gevreymhd.cli", *cmd[1:]]
    return cmd[1:]


def iteration(wl: Workload, seed: int, d: Path, traced: bool) -> dict:
    """One closed-loop iteration: every command of the workload, then checks."""
    d.mkdir(parents=True)
    wl.prepare(d, seed)
    out = {"wall": 0.0, "rss": 0.0, "problems": [], "spans": []}
    for k, cmd in enumerate(wl.commands(seed)):
        spans = d / f"spans{k}.json" if traced else None
        wall, rss, code = launch(command_argv(cmd, spans), d, d / f"log{k}.txt")
        out["wall"] += wall
        out["rss"] = max(out["rss"], rss)
        log = (d / f"log{k}.txt").read_text(errors="replace")
        if code != 0:
            out["problems"].append(f"{cmd[1]} exited {code}: {log[-2000:]}")
        elif "status: completed" not in log:
            out["problems"].append(f"{cmd[1]} did not complete: {log[-500:]}")
        if traced and spans.is_file():
            out["spans"].append((wall, json.loads(spans.read_text())))
        elif traced:
            out["problems"].append(f"{cmd[1]} wrote no spans")
    if not out["problems"]:
        out["steps"] = wl.check(d, seed, out["problems"])
    return out


def setup_times(wl: Workload, seed: int, d: Path, count: int) -> list:
    """Launch-to-exit times of `count` set-up probes run in directory d."""
    argv = [str(BENCH / "setup_probe.py"), *wl.setup_probe(seed)]
    times = []
    for _ in range(count):
        wall, _, code = launch(argv, d, d / "setup.txt")
        if code != 0:
            raise BenchError("set-up probe failed: "
                             + (d / "setup.txt").read_text(errors="replace"))
        times.append(wall)
    return times


# ----------------------------------------------------------- span analysis

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac"))

PER_LAYER = (
    "fft.calls", "fft.transforms", "fft.points", "fft.self_s",
    "spectral.to_physical.calls", "spectral.to_physical.self_s",
    "spectral.from_physical.calls", "spectral.from_physical.self_s",
    "spectral.leray_project.self_s", "spectral.dealias.self_s",
    "operators.gradient_physical.calls", "operators.gradient_physical.self_s",
    "operators.curl.self_s", "operators.advect.calls",
    "operators.advect.total_s",
    "solver.step_rk4.calls", "solver.step_rk4.total_s",
    "solver.step_rk4.self_s",
    "solver.rhs_primitive.calls", "solver.rhs_primitive.total_s",
    "solver.rhs_primitive.self_s",
    "solver.cfl_timestep.calls", "solver.cfl_timestep.total_s",
    "solver._sample_diagnostics.calls", "solver._sample_diagnostics.total_s",
    "solver._sample_diagnostics.self_s",
    "solver.step_rk4_curl.calls", "solver.step_rk4_curl.total_s",
    "solver.rhs_curl_pair.calls", "solver.rhs_curl_pair.total_s",
    "solver.recompute_radius.calls", "solver.recompute_radius.total_s",
    "norms.state_norms.total_s", "norms.sup_gradient.calls",
    "norms.sup_gradient.total_s", "norms.fit_radius.total_s",
    "radius.integrate_radius.calls", "radius.integrate_radius.total_s",
    "radius.intervals", "radius.cumulative_integral.total_s",
    "radius.gronwall_majorant.total_s", "radius.estimate_C_tilde.total_s",
    "triads.pair_marginal.calls", "triads.pair_marginal.total_s",
    "triads.extract_band.total_s", "triads.weight_tables.total_s",
    "lab.triad_decomposition_check.total_s", "lab.energy_balance_check.total_s",
    "lab.estimate_constant.total_s", "lab.scalar_inequality_suite.total_s",
    "checkpoint.save_checkpoint.calls", "checkpoint.save_checkpoint.total_s",
    "checkpoint.save_checkpoint.bytes", "checkpoint.load_checkpoint.calls",
    "checkpoint.load_checkpoint.total_s",
    "cli._write_series.total_s", "cli._write_spectrum.total_s",
    "trace.overhead_s", "trace.uncovered_s",
)
# Statistics read from a span's counts rather than its timing.
ALIASES = {"radius.intervals": ("radius.integrate_radius", "intervals")}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith(".bytes") else "count"


def span_stats(processes) -> tuple:
    """Per-span-name calls / total_s / self_s / counts, and uncovered time."""
    stats, uncovered, absent = {}, 0.0, set()
    for wall, rec in processes:
        spans = rec["spans"]
        absent.update(rec["absent"])
        child = [0.0] * len(spans)
        for sid, parent, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                wall -= t1 - t0
        uncovered += wall
        for sid, _, name, t0, t1, counts in spans:
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[sid]
            for key, value in (counts or {}).items():
                s[key] = s.get(key, 0) + value
    return stats, uncovered, sorted(absent)


def layer_metrics(stats: dict) -> dict:
    out = {}
    for metric in PER_LAYER:
        if metric.startswith("trace."):
            continue
        if metric.startswith("fft."):
            stat = metric.split(".", 1)[1]
            value = sum(s.get(stat, 0) for name, s in stats.items()
                        if name.startswith("fft."))
        else:
            name, stat = ALIASES.get(metric, tuple(metric.rsplit(".", 1)))
            value = stats.get(name, {}).get(stat, 0)
        out[metric] = value
    return out


# ------------------------------------------------------------- provenance

def provenance(seed: int) -> dict:
    def git(*args):
        if not (ROOT / ".git").exists():  # never report an enclosing repo
            return None
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=True).stdout
        except (OSError, subprocess.SubprocessError):
            return None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    import numpy
    from gevreymhd import triads

    backend = getattr(triads, "backend", None)
    return {
        "commit": commit.strip() if commit else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "triads_backend": backend() if backend else "absent",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "seed": seed,
        "threads": {k: child_env()[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ------------------------------------------------------------------- main

def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(wl, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _measure(wl, seed, seconds, trace, work) -> dict:
    setup_dir = work / "setup"
    setup_dir.mkdir(parents=True)
    wl.prepare(setup_dir, seed)
    setup_times(wl, seed, setup_dir, 1)  # fills the page and bytecode caches
    setups = []
    start = time.perf_counter()
    runs, pairs, failed, k = [], [], 0, 0
    durations = []
    # Start an iteration only while at least half of its typical length
    # still fits in the measured time, so a run ends within half an
    # iteration of `seconds` whatever the workload.
    while k == 0 or (time.perf_counter() - start
                     + statistics.median(durations) / 2 <= seconds):
        t_iter = time.perf_counter()
        if not trace:
            setups += setup_times(wl, seed, setup_dir, SETUP_TRIALS)
        plain = iteration(wl, seed, work / f"it{k}", traced=False)
        problems = plain["problems"]
        if trace:
            traced = iteration(wl, seed, work / f"it{k}t", traced=True)
            problems = problems + traced["problems"]
            for name in wl.outputs:
                a, b = work / f"it{k}" / name, work / f"it{k}t" / name
                if not (a.is_file() and b.is_file()
                        and a.read_bytes() == b.read_bytes()):
                    problems.append(f"traced {name} differs from untraced")
            pairs.append((plain, traced))
        runs.append(plain)
        failed += bool(problems)
        for p in problems:
            print(f"iteration {k}: FAILED {p}", file=sys.stderr)
        walls = f"wall {plain['wall']:.3f} s"
        if trace:
            walls += f", traced {traced['wall']:.3f} s"
        print(f"iteration {k}: {walls}, rss {plain['rss']:.0f} MB, "
              f"{'ok' if not problems else 'failed'}", flush=True)
        for sub in (f"it{k}", f"it{k}t"):
            shutil.rmtree(work / sub, ignore_errors=True)
        durations.append(time.perf_counter() - t_iter)
        k += 1

    metrics = {}
    if trace:
        per_pair = []
        for plain, traced in pairs:
            stats, uncovered, absent = span_stats(traced["spans"])
            m = layer_metrics(stats)
            m["trace.overhead_s"] = traced["wall"] - plain["wall"]
            m["trace.uncovered_s"] = uncovered
            per_pair.append(m)
        if absent:
            print(f"absent layer functions: {', '.join(absent)}", flush=True)
        for metric in PER_LAYER:
            metrics[metric] = {
                "value": statistics.median(m[metric] for m in per_pair),
                "unit": layer_unit(metric)}
    else:
        nproc = len(wl.commands(seed))
        setup = statistics.median(setups)
        ok = [r for r in runs if not r["problems"]]
        good = ok or runs
        rate = [r.get("steps", 0) / (r["wall"] - nproc * setup) for r in good]
        values = {
            "wall_s": statistics.median(r["wall"] for r in good),
            "setup_s": setup,
            "steps_per_s": statistics.median(rate),
            "peak_rss_mb": statistics.median(r["rss"] for r in good),
            "ok_frac": (len(runs) - failed) / len(runs),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gevreymhd" / "__init__.py").is_file():
        print(f"gevreymhd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        print("provenance: " + json.dumps(provenance(args.seed)), flush=True)
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
