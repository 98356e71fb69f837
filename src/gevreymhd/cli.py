"""Command-line entry points: run, verify, fit-radius, resume.

Exit codes: 0 success, 1 usage, config or checkpoint error, 2 numerical
abort or failed verification.  The environment variable GEVREYMHD_OUTPUT_DIR
overrides the output directory; no other setting is overridable.
"""

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .checkpoint import (CheckpointError, load_checkpoint, save_checkpoint,
                         temporary_path)
from .config import ConfigError, load_config
from .norms import (
    RadiusFitError,
    SubcriticalWarning,
    fit_radius,
    mode_amplitude,
    shell_spectrum,
)
from .operators import MultiplierSpec, curl
from .radius import RadiusTracker, estimate_C_tilde
from .solver import run
from .spectral import (Grid, init_state, random_band, random_band_field,
                       taylor_green_mhd)

CSV_HEADER = ("t,energy,cross_helicity,bkm_integrand,grad_sum,"
              "hr_norm,x_norm,y_norm,tau,tau_fit,tau_lower")
SPECTRUM_HEADER = "shell,k1_abs_max,amplitude_max,amplitude_l2"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_series(path: Path, records) -> None:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_fmt(v) for v in (
            rec.t, rec.energy, rec.cross_helicity, rec.bkm_integrand,
            rec.grad_sum, rec.norms.hr, rec.norms.x_norm, rec.norms.y_norm,
            rec.tau, rec.tau_fit, rec.tau_lower,
        )))
    path.write_text("\n".join(lines) + "\n")


def _write_spectrum(path: Path, state) -> None:
    columns = shell_spectrum(mode_amplitude(curl(state.u), curl(state.h)))
    lines = [SPECTRUM_HEADER]
    for p, row in enumerate(zip(*columns)):
        lines.append(",".join([str(p), *map(_fmt, row)]))
    path.write_text("\n".join(lines) + "\n")


def _execute_run(config, config_path: str, state, tau0: float) -> int:
    show = warnings.showwarning

    def show_warning(message, category, *args, **kwargs):
        # r comes from the config, so name the config, not library code.
        if issubclass(category, SubcriticalWarning):
            print(f"warning: {config_path}: {message}", file=sys.stderr)
        else:
            show(message, category, *args, **kwargs)

    out = Path(os.environ.get("GEVREYMHD_OUTPUT_DIR", "") or config.directory)
    series = out / config.series
    spectrum = config.spectra and out / f"{config.spectra}_final.csv"
    checkpoint = config.checkpoint and out / config.checkpoint
    # The checkpoint is written to its temporary file first.
    written = (series, spectrum, checkpoint,
               checkpoint and temporary_path(checkpoint))
    for path in filter(None, written):
        # Before the run, so a bad path does not cost the run.
        if path.is_dir():
            raise ConfigError(f"output file {path} is a directory")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory "
                              f"{path.parent}: {exc}") from exc
    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        # A line on stderr, also where the caller's filters raise warnings.
        warnings.simplefilter("always", SubcriticalWarning)
        result = run(
            state, params=config.params, t_end=config.t_end, dt=config.dt,
            cfl=config.cfl, cadence=config.cadence,
        )
    records, c = result.records, config.c
    if c == "fit":
        try:
            c_tilde = estimate_C_tilde([rec.norms.hr for rec in records],
                                       [rec.grad_integral for rec in records])
        except ValueError as exc:  # too few samples or an unbounded constant
            print(f"warning: {config_path}: c = fit skipped ({exc}); "
                  "tau uses C = 1", file=sys.stderr)
            c = 1.0
        else:
            c = max(2.0 * c_tilde, 1e-6)
            print(f"fitted constants: C_tilde={c_tilde:.6g} C={c:.6g}")
    tracker = RadiusTracker(C=c, tau0=tau0)
    records = [tracker.track(rec) for rec in records]
    status = result.status
    if status == "completed" and tracker.collapsed:
        status = "radius-collapse"

    _write_series(series, records)
    if spectrum:
        _write_spectrum(spectrum, result.state)
    if checkpoint:
        save_checkpoint(checkpoint, result.state, config.params,
                        records[-1].tau)
    print(f"status: {status}; wrote {series}")
    return 0 if status == "completed" else 2


def cmd_run(args) -> int:
    config = load_config(args.config)
    state = init_state(config.kind, Grid(config.n), **config.initial_params())
    return _execute_run(config, args.config, state, config.params.tau)


def cmd_resume(args) -> int:
    config = load_config(args.config)
    state, saved, tau = load_checkpoint(args.checkpoint)
    if state.grid.n != config.n:
        raise ConfigError(f"checkpoint grid n={state.grid.n} does not match "
                          f"config grid.n={config.n}")
    # The norm columns are defined by (r, s); a change would alter their
    # meaning at the resume time.
    if (saved.r, saved.s) != (config.params.r, config.params.s):
        raise ConfigError(f"checkpoint (r, s) = ({saved.r}, {saved.s}) does "
                          f"not match config gevrey (r, s) = "
                          f"({config.params.r}, {config.params.s})")
    if state.t >= config.t_end:
        raise ConfigError(f"checkpoint time t={state.t} is already past "
                          f"t_end={config.t_end}")
    return _execute_run(config, args.config, state, tau)


def cmd_fit_radius(args) -> int:
    state, params, tau = load_checkpoint(args.checkpoint)
    try:
        fitted = fit_radius(mode_amplitude(curl(state.u), curl(state.h)),
                            params.s)
    except RadiusFitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2
    print(f"t={_fmt(state.t)} tau_tracked={_fmt(tau)} tau_fit={_fmt(fitted)}")
    return 0


def cmd_verify(args) -> int:
    # Only verify needs the lab (and the triads it loads); importing it here
    # keeps it out of every other command's start-up.
    from . import lab

    if not 1 <= args.range <= lab.SWEEP_CAP or args.seed < 0:
        print(f"usage: gevreymhd verify needs 1 <= --range <= {lab.SWEEP_CAP} "
              f"and --seed >= 0, got {args.range} and {args.seed}",
              file=sys.stderr)
        return 1
    reports: list = []
    if args.suite in ("identities", "all"):
        st = random_band(Grid(16), seed=args.seed, kmax=4, amplitude=1.0)
        omega = curl(st.u)
        current = curl(st.h)
        spec = MultiplierSpec(m=1, r=1.5, tau=0.2, s=1.5)
        for tag in lab.KNOWN_IDENTITIES:
            rep = lab.triad_decomposition_check(st.u, st.h, omega, current,
                                                spec, tag)
            reports.append((f"identity-{tag}", rep.residual,
                            rep.residual < 1e-11))
        res = lab.cancellation_residual(st.u, omega, spec)
        reports.append(("cancellation", res, res < 1e-12))
    if args.suite in ("inequalities", "all"):
        for name, rep in lab.scalar_inequality_suite(
                args.range, (1.0, 1.5, 2.0)).items():
            value = rep.empirical_C if np.isfinite(rep.empirical_C) else rep.worst_margin
            reports.append((f"scalar-{name}", value, rep.violations == 0))
        fields = [random_band_field(Grid(8), seed=args.seed + i, kmax=2)
                  for i in range(20)]
        rep = lab.operator_inequality_suite(fields, r=3.0, tau=0.2,
                                            s=1.0)["constant_one"]
        reports.append(("operator-constant_one", rep.worst_margin,
                        rep.violations == 0))
    if args.suite in ("balance", "all"):
        state = taylor_green_mhd(Grid(16))
        spec = MultiplierSpec(m=3, r=1.0, tau=0.1, s=1.0)
        out = lab.energy_balance_check(state, spec, (1e-2, 5e-3, 2.5e-3))
        order = min(out["orders"]) if out["orders"] else float("nan")
        reports.append(("balance-order", order, order >= 1.9))
    ok = True
    for name, value, passed in reports:
        ok &= passed
        print(f"check={name} value={value:.6e} pass={'yes' if passed else 'no'}")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gevreymhd",
        description="Pseudo-spectral ideal MHD with Gevrey-radius diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", choices=("identities", "inequalities",
                                            "balance", "all"))
    p_verify.add_argument("--range", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_fit = sub.add_parser("fit-radius",
                           help="fit the spectral decay radius of a checkpoint")
    p_fit.add_argument("checkpoint")
    p_fit.set_defaults(func=cmd_fit_radius)

    p_resume = sub.add_parser("resume", help="resume a run from a checkpoint")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("config")
    p_resume.set_defaults(func=cmd_resume)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
