"""The CLI's error path and warnings, and the README's config example."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gevreymhd.checkpoint import MAGIC, VERSION, _HEADER, save_checkpoint
from gevreymhd.config import REQUIRED, SCHEMA, load_config
from gevreymhd.norms import GevreyParams
from gevreymhd.spectral import Grid, taylor_green_mhd

ROOT = Path(__file__).resolve().parents[1]

CFG = """\
[grid]
n = 16
[initial]
kind = taylor-green
[time]
t_end = 0.05
dt = 0.01
cadence = 5
[gevrey]
r = 4.5
tau0 = 0.1
[output]
directory = out
"""


def run_cli(cwd, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    env.pop("GEVREYMHD_OUTPUT_DIR", None)
    return subprocess.run([sys.executable, "-m", "gevreymhd.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)


def readme_ini() -> str:
    blocks = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


class TestReadme:
    def test_minimal_config_loads(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(readme_ini())
        cfg = load_config(path)
        assert (cfg.n, cfg.kind, cfg.dt, cfg.c) == (32, "taylor-green", 0.01,
                                                    "fit")

    def test_every_optional_key_listed_with_its_default(self):
        text = (ROOT / "README.md").read_text()
        for section, keys in SCHEMA.items():
            for key, (_cast, default) in keys.items():
                if default is REQUIRED or default is None:
                    continue
                shown = f"`{default}`" if default != "" else "empty"
                assert f"| `{section}.{key}` | {shown}" in text

    def test_library_example_imports_exist(self):
        text = (ROOT / "README.md").read_text()
        section = text.split("## Library example", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
        names = [(node.module, alias.name)
                 for node in ast.walk(ast.parse(code))
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "gevreymhd"
                 for alias in node.names]
        assert names
        for module, name in names:
            assert hasattr(importlib.import_module(module), name), (module,
                                                                    name)


def small_checkpoint(path):
    save_checkpoint(path, taylor_green_mhd(Grid(16)), GevreyParams(r=4.5),
                    0.1)


def truncated_checkpoint(path):
    small_checkpoint(path)
    path.write_bytes(path.read_bytes()[:100])


def wrong_magic_checkpoint(path):
    small_checkpoint(path)
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


def other_gevrey_checkpoint(path):
    save_checkpoint(path, taylor_green_mhd(Grid(16)),
                    GevreyParams(r=6.0, s=2.0), 0.1)


def header(n=16, r=4.5):
    return _HEADER.pack(MAGIC, VERSION, n, 0.0, r, 1.0, 0.1)


def zero_grid_checkpoint(path):
    # n = 0 holds no coefficients, so the header alone is the whole size.
    path.write_bytes(header(n=0))


def odd_grid_checkpoint(path):
    path.write_bytes(header(n=6) + bytes(2 * 3 * 6**3 * 16))


def negative_r_checkpoint(path):
    small_checkpoint(path)
    path.write_bytes(header(r=-3.0) + path.read_bytes()[_HEADER.size:])


def late_checkpoint(path):
    state = taylor_green_mhd(Grid(16))
    state.t = 1.0
    save_checkpoint(path, state, GevreyParams(r=4.5), 0.1)


def edited_checkpoint(path, *edits):
    """small_checkpoint's state with each value added to u at its index."""
    state = taylor_green_mhd(Grid(16))
    for index, value in edits:
        state.u.coeffs[index] += value
    save_checkpoint(path, state, GevreyParams(r=4.5), 0.1)


def nan_payload_checkpoint(path):
    edited_checkpoint(path, ((0, 1, 1, 1), float("nan")))


def unpaired_payload_checkpoint(path):
    # u_2 at k = (1, 0, 0) keeps u solenoidal; its partner at -k is unchanged.
    edited_checkpoint(path, ((1, 1, 0, 0), 0.01))


def non_solenoidal_payload_checkpoint(path):
    # u_1 at k = (1, 0, 0) and at its partner -k: Hermitian, not solenoidal.
    edited_checkpoint(path, ((0, 1, 0, 0), 0.01), ((0, -1, 0, 0), 0.01))


BAD_PAYLOADS = [
    (nan_payload_checkpoint,
     "checkpoint error: field u has non-finite coefficients"),
    (unpaired_payload_checkpoint,
     "checkpoint error: field u has a Hermitian defect of 1.000e-02"),
    (non_solenoidal_payload_checkpoint,
     "checkpoint error: field u has a divergence defect of 1.000e-02"),
]


class TestErrorPath:
    @pytest.mark.parametrize("command, make, prefix", [
        *((command, make, prefix) for command in ("resume", "fit-radius")
          for make, prefix in BAD_PAYLOADS),
        ("resume", None, "checkpoint error: checkpoint not found"),
        ("resume", truncated_checkpoint, "checkpoint error:"),
        ("resume", wrong_magic_checkpoint, "checkpoint error:"),
        ("fit-radius", None, "checkpoint error: checkpoint not found"),
        ("fit-radius", zero_grid_checkpoint,
         "checkpoint error: bad checkpoint header: grid size"),
        ("resume", odd_grid_checkpoint,
         "checkpoint error: bad checkpoint header: grid size"),
        ("resume", negative_r_checkpoint,
         "checkpoint error: bad checkpoint header: r must be > 0"),
        ("resume", late_checkpoint, "config error: checkpoint time t=1.0 is "
                                    "already past t_end=0.05"),
        ("resume", other_gevrey_checkpoint,
         "config error: checkpoint (r, s) = (6.0, 2.0) does not match config "
         "gevrey (r, s) = (4.5, 1.0)"),
    ])
    def test_one_line_and_exit_one(self, tmp_path, command, make, prefix):
        (tmp_path / "run.cfg").write_text(CFG)
        ck = tmp_path / "state.gmhd"
        if make is not None:
            make(ck)
        argv = [command, str(ck)] + (["run.cfg"] if command == "resume" else [])
        out = run_cli(tmp_path, *argv)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(prefix)


def test_skipped_radius_fit_is_reported(tmp_path):
    (tmp_path / "run.cfg").write_text(CFG + "[radius]\nc = fit\n")
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 0
    assert "status: completed" in out.stdout
    assert out.stderr.splitlines() == [
        "warning: run.cfg: c = fit skipped (need >= 10 samples, got 2); "
        "tau uses C = 1"
    ]
    assert len((tmp_path / "out" / "series.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("old, new, prefix", [
    ("dt = 0.01", "dt = 0", "time.dt must be > 0"),
    ("dt = 0.01", "dt = -0.01", "time.dt must be > 0"),
    ("dt = 0.01", "cfl = -0.5", "time.cfl must be > 0"),
    ("kind = taylor-green", "kind = random-band\nseed = -1",
     "initial.seed must be >= 0"),
    ("n = 16\n[initial]\nkind = taylor-green",
     "n = 8\n[initial]\nkind = random-band\nkmax = 3",
     "initial.kmax must be < grid.n/3"),
    ("n = 16\n[initial]\nkind = taylor-green",
     "n = 8\n[initial]\nkind = random-band\nkmax = 0",
     "initial.kmax must be >= 1"),
    ("cadence = 5\n[gevrey]\nr = 4.5", "cadence = 0\n[gevrey]\nr = -1",
     "time.cadence must be >= 1, got 0; gevrey.r must be > 0, got -1.0"),
    ("r = 4.5", "r = 4.5\ns = 0.5", "gevrey.s must be >= 1"),
    ("r = 4.5", "r = nan", "gevrey.r must be finite"),
    ("t_end = 0.05", "t_end = nan", "time.t_end must be finite"),
    # A norm weight that overflows float64 made the first sample's hr NaN
    # (r = 200) or its X and Y infinite (tau0 = 50), or made the directional
    # weight raise MultiplierError (tau0 = 100): each ended in a traceback.
    ("r = 4.5", "r = 200", "grid.n = 16, gevrey.r = 200.0, gevrey.s = 1.0 "
     "and gevrey.tau0 = 0.1 give a norm weight that overflows float64"),
    ("tau0 = 0.1", "tau0 = 50", "grid.n = 16, gevrey.r = 4.5, gevrey.s = "
     "1.0 and gevrey.tau0 = 50.0 give a norm weight"),
    ("tau0 = 0.1", "tau0 = 100", "grid.n = 16, gevrey.r = 4.5, gevrey.s = "
     "1.0 and gevrey.tau0 = 100.0 give a norm weight"),
])
def test_run_rejects_values_the_solver_cannot_use(tmp_path, old, new, prefix):
    assert old in CFG
    (tmp_path / "run.cfg").write_text(CFG.replace(old, new))
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: {prefix}")


def test_large_norm_weight_that_fits_still_runs(tmp_path):
    (tmp_path / "run.cfg").write_text(
        CFG.replace("n = 16", "n = 8").replace("r = 4.5", "r = 120"))
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 0, out.stderr
    assert "status: completed" in out.stdout


def test_unusable_output_directory_is_reported_before_the_run(tmp_path):
    # The directory was made after the run, which then died with a
    # NotADirectoryError traceback.
    (tmp_path / "afile").write_text("")
    (tmp_path / "run.cfg").write_text(
        CFG.replace("directory = out", "directory = afile/sub"))
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "config error: cannot create output directory afile/sub: ")
    assert out.stdout == ""


@pytest.mark.parametrize("key, value, written", [
    ("series", "runs/series.csv", "runs/series.csv"),
    ("checkpoint", "ck/state.gmhd", "ck/state.gmhd"),
    ("spectra", "d/spec", "d/spec_final.csv"),
])
def test_output_file_subdirectory_is_created(tmp_path, key, value, written):
    # Only the output directory was made, so writing the file into a
    # subdirectory of it failed with a traceback after the run.
    (tmp_path / "run.cfg").write_text(CFG + f"{key} = {value}\n")
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert (tmp_path / "out" / written).is_file()


def test_unusable_output_file_directory_is_reported_before_the_run(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "afile").write_text("")
    (tmp_path / "run.cfg").write_text(
        CFG + "checkpoint = afile/state.gmhd\n")
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "config error: cannot create output directory out/afile: ")
    assert out.stdout == ""


@pytest.mark.parametrize("name", ["", "."])
def test_series_name_without_a_file_is_a_config_error(tmp_path, name):
    # The series was written to the output directory itself, which ended
    # the run with an IsADirectoryError traceback and no series.
    (tmp_path / "run.cfg").write_text(CFG + f"series = {name}\n")
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 1
    assert out.stderr.splitlines() == [
        f"config error: output.series must name a file: {name!r}"]
    assert out.stdout == ""


def series_rows(path) -> list:
    lines = path.read_text().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]


def test_fitted_constant_is_the_one_that_tracks_tau(tmp_path):
    # The C = 1 placeholder collapsed at the first step, which ended the run
    # with 2 rows, too few to fit the constant the series was to be written
    # with.  The run now reaches t_end and is tracked once, with the fit.
    (tmp_path / "run.cfg").write_text(
        CFG.replace("n = 16", "n = 8").replace("t_end = 0.05", "t_end = 0.3")
        .replace("cadence = 5", "cadence = 1").replace("r = 4.5", "r = 20")
        .replace("tau0 = 0.1", "tau0 = 0.5") + "[radius]\nc = fit\n")
    out = run_cli(tmp_path, "run", "run.cfg")
    rows = series_rows(tmp_path / "out" / "series.csv")
    assert len(rows) == 31 and rows[-1]["t"] == pytest.approx(0.3)
    assert "fitted constants: C_tilde=" in out.stdout
    collapsed = any(row["tau"] == 1e-300 for row in rows)
    assert ("status: radius-collapse" in out.stdout) == collapsed
    assert out.returncode == (2 if collapsed else 0)


def test_radius_collapse_is_reported_at_t_end(tmp_path):
    # exp(C I(t)) overflows with C = 3e4; numpy's overflow warnings once
    # reached the user, and the collapse ended the run early.
    (tmp_path / "run.cfg").write_text(
        CFG.replace("t_end = 0.05", "t_end = 0.5")
        .replace("cadence = 5", "cadence = 2") + "[radius]\nc = 3e4\n")
    out = run_cli(tmp_path, "run", "run.cfg")
    assert out.returncode == 2
    assert "status: radius-collapse" in out.stdout
    assert "RuntimeWarning" not in out.stderr
    rows = series_rows(tmp_path / "out" / "series.csv")
    assert len(rows) == 26 and rows[-1]["t"] == pytest.approx(0.5)
    assert rows[-1]["tau"] == 1e-300


@pytest.mark.parametrize("argv", [
    ("run",), ("verify", "bogus"), ("fit-radius", "state.gmhd", "--s", "1.5"),
    ("verify", "inequalities", "--range", "0"),
    ("verify", "inequalities", "--range", "300"),
    ("verify", "identities", "--seed", "-1"),
])
def test_usage_error_exits_one(tmp_path, argv):
    out = run_cli(tmp_path, *argv)
    assert out.returncode == 1
    assert "usage: gevreymhd" in out.stderr
    assert "Traceback" not in out.stderr


def test_help_exits_zero(tmp_path):
    out = run_cli(tmp_path, "--help")
    assert out.returncode == 0
    assert "usage: gevreymhd" in out.stdout
