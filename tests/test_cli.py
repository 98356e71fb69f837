"""The CLI's error path and warnings, and the README's config example."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gevreymhd
from gevreymhd.checkpoint import save_checkpoint
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
        names = [alias.name for node in ast.walk(ast.parse(code))
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "gevreymhd" for alias in node.names]
        assert names
        for name in names:
            assert hasattr(gevreymhd, name), name


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


def late_checkpoint(path):
    state = taylor_green_mhd(Grid(16))
    state.t = 1.0
    save_checkpoint(path, state, GevreyParams(r=4.5), 0.1)


class TestErrorPath:
    @pytest.mark.parametrize("command, make, prefix", [
        ("resume", None, "checkpoint error: checkpoint not found"),
        ("resume", truncated_checkpoint, "checkpoint error:"),
        ("resume", wrong_magic_checkpoint, "checkpoint error:"),
        ("fit-radius", None, "checkpoint error: checkpoint not found"),
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
