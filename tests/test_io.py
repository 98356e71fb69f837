import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gevreymhd.checkpoint import (
    MAGIC,
    VERSION,
    _HEADER,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from gevreymhd.cli import main
from gevreymhd.config import ConfigError, load_config
from gevreymhd.norms import GevreyParams
from gevreymhd.spectral import Grid, random_band, taylor_green_mhd


BASE_CFG = """\
[grid]
n = 16

[initial]
kind = taylor-green

[time]
t_end = 0.05
dt = 0.01
cadence = 5

[gevrey]
r = 3.0
tau0 = 0.1

[output]
directory = {outdir}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfig:
    def test_minimal_config_loads(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, BASE_CFG.format(outdir=tmp_path)))
        assert cfg.n == 16
        assert cfg.kind == "taylor-green"
        assert cfg.params.r == 3.0

    def test_unknown_key_rejected(self, tmp_path):
        text = BASE_CFG.format(outdir=tmp_path) + "\n[grid]\nresolution = 8\n"
        # configparser merges duplicate sections; use a fresh unknown key
        text = BASE_CFG.format(outdir=tmp_path).replace(
            "n = 16", "n = 16\nresolution = 8"
        )
        with pytest.raises(ConfigError, match="grid.resolution"):
            load_config(write_cfg(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = BASE_CFG.format(outdir=tmp_path) + "\n[physics]\nnu = 0\n"
        with pytest.raises(ConfigError, match=r"\[physics\]"):
            load_config(write_cfg(tmp_path, text))

    def test_missing_keys_listed_exhaustively(self, tmp_path):
        p = write_cfg(tmp_path, "[grid]\nn = 16\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        msg = str(err.value)
        for key in ("initial.kind", "time.t_end", "gevrey.r", "gevrey.tau0"):
            assert key in msg

    def test_non_power_of_two_rejected_naming_key(self, tmp_path):
        text = BASE_CFG.format(outdir=tmp_path).replace("n = 16", "n = 100")
        with pytest.raises(ConfigError, match="grid.n"):
            load_config(write_cfg(tmp_path, text))

    def test_dt_and_cfl_mutually_exclusive(self, tmp_path):
        text = BASE_CFG.format(outdir=tmp_path).replace(
            "dt = 0.01", "dt = 0.01\ncfl = 0.5"
        )
        with pytest.raises(ConfigError, match="dt"):
            load_config(write_cfg(tmp_path, text))

    def test_fit_keyword_accepted(self, tmp_path):
        text = BASE_CFG.format(outdir=tmp_path) + "\n[radius]\nc = fit\n"
        assert load_config(write_cfg(tmp_path, text)).c == "fit"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")


class TestCheckpoint:
    def test_bitwise_round_trip(self, tmp_path):
        st = random_band(Grid(16), seed=61, kmax=4)
        st.t = 0.375
        params = GevreyParams(r=3.0, s=1.5, tau=0.21)
        path = tmp_path / "state.gmhd"
        save_checkpoint(path, st, params, tau=0.125)
        loaded, lparams, tau = load_checkpoint(path)
        assert loaded.t == st.t
        assert (lparams.r, lparams.s, tau) == (3.0, 1.5, 0.125)
        assert np.array_equal(loaded.u.coeffs, st.u.coeffs)
        assert np.array_equal(loaded.h.coeffs, st.h.coeffs)
        # writing the loaded state reproduces the file byte for byte
        path2 = tmp_path / "state2.gmhd"
        save_checkpoint(path2, loaded, lparams, tau)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        st = taylor_green_mhd(Grid(8))
        path = tmp_path / "state.gmhd"
        save_checkpoint(path, st, GevreyParams(r=3.0), 0.1)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_reports_versions(self, tmp_path):
        st = taylor_green_mhd(Grid(8))
        path = tmp_path / "state.gmhd"
        save_checkpoint(path, st, GevreyParams(r=3.0), 0.1)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        st = taylor_green_mhd(Grid(8))
        path = tmp_path / "state.gmhd"
        save_checkpoint(path, st, GevreyParams(r=3.0), 0.1)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "none.gmhd")

    @pytest.mark.parametrize("values, match", [
        (dict(n=0), "grid size must be even and >= 8, got n=0"),
        (dict(n=6), "grid size must be even and >= 8, got n=6"),
        (dict(r=-3.0), "r must be > 0"),
        (dict(s=0.5), "s must be >= 1"),
        (dict(tau=-0.1), "tau must be >= 0"),
        (dict(r=float("nan")), "non-finite"),
        (dict(tau=float("inf")), "non-finite"),
        (dict(t=float("nan")), "non-finite"),
        (dict(tau=0.0), "tau must be > 0"),
    ])
    def test_header_values_rejected(self, tmp_path, values, match):
        # Each file is the size its header asks for, so only the values
        # can be at fault.
        fields = {**dict(n=8, t=0.0, r=3.0, s=1.0, tau=0.1), **values}
        n = fields["n"]
        path = tmp_path / "state.gmhd"
        path.write_bytes(_HEADER.pack(MAGIC, VERSION, *fields.values())
                         + bytes(2 * 3 * n**3 * 16))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_io_copies_no_state(self, tmp_path):
        # Saving writes the fields' own buffers; loading reads into the two
        # fields it returns, and allocates little else.
        st = taylor_green_mhd(Grid(32))
        path = tmp_path / "state.gmhd"
        field_bytes = st.u.coeffs.nbytes
        peaks = []
        for call in (lambda: save_checkpoint(path, st, GevreyParams(r=3.0),
                                             0.1),
                     lambda: load_checkpoint(path)):
            call()
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / field_bytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.1
        assert peaks[1] <= 2.1


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_run_writes_series_and_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.format(outdir=tmp_path / "out"))
        assert self.run_cli("run", str(cfg)) == 0
        series = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert series[0] == ("t,energy,cross_helicity,bkm_integrand,grad_sum,"
                             "hr_norm,x_norm,y_norm,tau,tau_fit,tau_lower")
        assert len(series) == 1 + 2  # header + samples at t=0, 0.05

    @staticmethod
    def run_subprocess(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        return subprocess.run([sys.executable, "-m", "gevreymhd.cli", *argv],
                              env=env, capture_output=True, text=True)

    def test_subcritical_warning_reaches_stderr(self, tmp_path):
        # BASE_CFG has r = 3 <= 5/2 + 3/(2s) = 4 at s = 1
        cfg = write_cfg(tmp_path, BASE_CFG.format(outdir=tmp_path / "out"))
        out = self.run_subprocess("run", str(cfg))
        assert out.returncode == 0
        lines = [ln for ln in out.stderr.splitlines()
                 if "regularity threshold" in ln]
        assert lines == [f"warning: {cfg}: r=3.0 is below the regularity "
                         "threshold 5/2 + 3/(2s) = 4.0000 for s=1.0"]
        assert "solver.py" not in out.stderr

    def test_non_finite_step_exits_two_with_partial_series(self, tmp_path):
        text = BASE_CFG.format(outdir=tmp_path / "out").replace(
            "kind = taylor-green",
            "kind = random-band\nseed = 0\nkmax = 2\namplitude = 1e3",
        ).replace("t_end = 0.05\ndt = 0.01", "t_end = 1.0\ndt = 0.1").replace(
            "r = 3.0", "r = 4.5").replace(
            "[output]\n", "[output]\ncheckpoint = state.gmhd\n",
        ) + "\n[radius]\nc = 1e-30\n"
        out = self.run_subprocess("run", str(write_cfg(tmp_path, text)))
        assert out.returncode == 2
        assert "status: non-finite" in out.stdout
        assert "Traceback" not in out.stderr
        series = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert series[1].startswith("0,")
        # the checkpoint holds the last series row's state and radius
        header = series[0].split(",")
        last = dict(zip(header, series[-1].split(",")))
        state, _params, tau = load_checkpoint(tmp_path / "out" / "state.gmhd")
        assert state.t > 0
        assert state.t == float(last["t"])
        assert tau == float(last["tau"])

    def test_run_with_bad_config_exits_one(self, tmp_path, capsys):
        text = BASE_CFG.format(outdir=tmp_path).replace("n = 16", "n = 100")
        cfg = write_cfg(tmp_path, text)
        assert self.run_cli("run", str(cfg)) == 1
        assert "grid.n" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            cfg = write_cfg(tmp_path, BASE_CFG.format(outdir=out),
                            name=f"{out.name}.cfg")
            assert self.run_cli("run", str(cfg)) == 0
        assert (out1 / "series.csv").read_bytes() == (
            out2 / "series.csv"
        ).read_bytes()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "override"
        monkeypatch.setenv("GEVREYMHD_OUTPUT_DIR", str(override))
        cfg = write_cfg(tmp_path, BASE_CFG.format(outdir=tmp_path / "ignored"))
        assert self.run_cli("run", str(cfg)) == 0
        assert (override / "series.csv").is_file()
        assert not (tmp_path / "ignored").exists()

    def test_spectrum_snapshot_schema(self, tmp_path):
        text = BASE_CFG.format(outdir=tmp_path / "out") + "spectra = spec\n"
        cfg = write_cfg(tmp_path, text)
        assert self.run_cli("run", str(cfg)) == 0
        lines = (tmp_path / "out" / "spec_final.csv").read_text().splitlines()
        assert lines[0] == "shell,k1_abs_max,amplitude_max,amplitude_l2"
        assert len(lines) > 4

    def test_fit_radius_command(self, tmp_path, capsys):
        text = BASE_CFG.format(outdir=tmp_path / "out") + "checkpoint = c.gmhd\n"
        text = text.replace("kind = taylor-green",
                            "kind = random-band\nseed = 3\nkmax = 4\n"
                            "amplitude = 0.001")
        cfg = write_cfg(tmp_path, text)
        assert self.run_cli("run", str(cfg)) == 0
        assert self.run_cli("fit-radius", str(tmp_path / "out" / "c.gmhd")) == 0
        assert "tau_fit=" in capsys.readouterr().out

    def test_fit_radius_uses_the_checkpoint_s(self, tmp_path, capsys):
        text = BASE_CFG.format(outdir=tmp_path / "out").replace(
            "r = 3.0", "r = 4.5\ns = 1.5") + "checkpoint = c.gmhd\n"
        assert self.run_cli("run", str(write_cfg(tmp_path, text))) == 0
        capsys.readouterr()
        last = (tmp_path / "out" / "series.csv").read_text().splitlines()[-1]
        tau_fit = last.split(",")[9]
        assert self.run_cli("fit-radius", str(tmp_path / "out" / "c.gmhd")) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"tau_fit={tau_fit}")

    def test_fitted_run_starts_tau_lower_at_tau0(self, tmp_path, capsys):
        # 1/(1/0.11) is 0.10999999999999999, which the first row once took
        text = BASE_CFG.format(outdir=tmp_path / "out").replace(
            "tau0 = 0.1", "tau0 = 0.11").replace(
            "t_end = 0.05", "t_end = 0.1").replace(
            "cadence = 5", "cadence = 1") + "\n[radius]\nc = fit\n"
        assert self.run_cli("run", str(write_cfg(tmp_path, text))) == 0
        assert "fitted constants" in capsys.readouterr().out
        rows = (tmp_path / "out" / "series.csv").read_text().splitlines()
        first = rows[1].split(",")
        assert (first[8], first[10]) == ("0.11", "0.11")

    def test_verify_all_passes(self, capsys):
        assert self.run_cli("verify", "all", "--range", "40") == 0
        out = capsys.readouterr().out
        assert "pass=yes" in out
        assert "pass=no" not in out
        assert "check=operator-constant_one " in out

    def test_verify_unknown_suite(self, capsys):
        assert self.run_cli("verify", "bogus") == 1

    def test_resume_matches_uninterrupted(self, tmp_path):
        # full run to t = 0.1
        full_text = BASE_CFG.format(outdir=tmp_path / "full").replace(
            "t_end = 0.05", "t_end = 0.1"
        ) + "checkpoint = full.gmhd\n"
        assert self.run_cli("run", str(write_cfg(tmp_path, full_text,
                                                 "full.cfg"))) == 0
        # half run to t = 0.05 with checkpoint, then resume to t = 0.1
        half_text = BASE_CFG.format(outdir=tmp_path / "half") \
            + "checkpoint = half.gmhd\n"
        assert self.run_cli("run", str(write_cfg(tmp_path, half_text,
                                                 "half.cfg"))) == 0
        resume_text = BASE_CFG.format(outdir=tmp_path / "resumed").replace(
            "t_end = 0.05", "t_end = 0.1"
        ) + "checkpoint = resumed.gmhd\n"
        assert self.run_cli(
            "resume", str(tmp_path / "half" / "half.gmhd"),
            str(write_cfg(tmp_path, resume_text, "resume.cfg")),
        ) == 0
        full, _, _ = load_checkpoint(tmp_path / "full" / "full.gmhd")
        resumed, _, _ = load_checkpoint(tmp_path / "resumed" / "resumed.gmhd")
        scale = full.u.max_amplitude()
        assert np.max(np.abs(full.u.coeffs - resumed.u.coeffs)) < 1e-12 * scale
        assert np.max(np.abs(full.h.coeffs - resumed.h.coeffs)) < 1e-12 * scale

    @pytest.mark.parametrize("initial", [
        "kind = taylor-green",
        "kind = random-band\nseed = 3\nkmax = 2\namplitude = 0.05",
    ], ids=["taylor-green", "random-band"])
    def test_checkpoint_a_run_writes_loads(self, tmp_path, initial):
        # A stepped state is +0.0 outside the 2/3 band, byte for byte.
        text = BASE_CFG.format(outdir=tmp_path / "out").replace(
            "kind = taylor-green", initial) + "checkpoint = ck.gmhd\n"
        assert self.run_cli("run", str(write_cfg(tmp_path, text))) == 0
        state, _, _ = load_checkpoint(tmp_path / "out" / "ck.gmhd")
        outside = ~state.grid.band_mask(state.grid.n / 3.0)
        for field in (state.u, state.h):
            assert field.max_amplitude() > 0
            assert not np.any(field.coeffs[:, outside].copy().view(np.uint8))

    def test_resume_grid_mismatch(self, tmp_path, capsys):
        st = taylor_green_mhd(Grid(8))
        ck = tmp_path / "small.gmhd"
        save_checkpoint(ck, st, GevreyParams(r=3.0), 0.1)
        cfg = write_cfg(tmp_path, BASE_CFG.format(outdir=tmp_path / "out"))
        assert self.run_cli("resume", str(ck), str(cfg)) == 1
        assert "does not match" in capsys.readouterr().err
