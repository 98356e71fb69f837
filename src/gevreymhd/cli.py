"""Command-line entry points: run, verify, fit-radius, resume.

Exit codes: 0 success, 1 usage/config error, 2 numerical abort or failed
verification.  The output directory can be overridden with the environment
variable GEVREYMHD_OUTPUT_DIR; no other setting is overridable.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

CSV_HEADER = ("t,energy,cross_helicity,bkm_integrand,grad_sum,"
              "hr_norm,x_norm,y_norm,tau,tau_fit,tau_lower")
SPECTRUM_HEADER = "shell,k1_abs_max,amplitude_max,amplitude_l2"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _output_dir(config_dir: str) -> Path:
    override = os.environ.get("GEVREYMHD_OUTPUT_DIR", "")
    out = Path(override) if override else Path(config_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    from .norms import shell_maxima
    from .operators import curl
    from .solver import _pair_max_field

    pair = _pair_max_field(curl(state.u), curl(state.h))
    grid = state.grid
    k1, k2, k3 = grid.wavevectors()
    shells = (np.abs(k1) + np.abs(k2) + np.abs(k3)).ravel()
    amp = np.max(np.abs(pair.coeffs), axis=0).ravel()
    absk1 = np.broadcast_to(np.abs(k1), (grid.n,) * 3).ravel()
    amax = shell_maxima(pair)
    nshell = len(amax)
    k1max = np.zeros(nshell)
    al2 = np.zeros(nshell)
    populated = amp > 0
    np.maximum.at(k1max, shells[populated], absk1[populated])
    np.add.at(al2, shells, amp**2)
    lines = [SPECTRUM_HEADER]
    for p in range(nshell):
        lines.append(",".join([str(p), _fmt(k1max[p]), _fmt(amax[p]),
                               _fmt(np.sqrt(al2[p]))]))
    path.write_text("\n".join(lines) + "\n")


def _build_state(config):
    from .spectral import Grid, init_state

    grid = Grid(config.n)
    return init_state(config.kind, grid, **config.initial_params())


def _execute_run(config, state, start_tau: float | None = None) -> int:
    from .radius import RadiusModel, cumulative_integral, estimate_C_tilde
    from .solver import recompute_radius, run

    tau0 = start_tau if start_tau is not None else config.params.tau
    fit_requested = config.c == "fit"
    model = RadiusModel(C=1.0 if fit_requested else float(config.c), tau0=tau0)
    result = run(
        state, params=config.params, t_end=config.t_end, dt=config.dt,
        cfl=config.cfl, cadence=config.cadence, model=model,
    )
    records = result.records
    if fit_requested and len(records) >= 10:
        times = [rec.t for rec in records]
        grads = [rec.grad_sum for rec in records]
        hrs = [rec.norms.hr for rec in records]
        integral = cumulative_integral(times, grads)
        c_tilde = estimate_C_tilde(times, hrs, integral)
        c_fit = max(2.0 * c_tilde, 1e-6)
        fitted = RadiusModel(C=c_fit, C_tilde=max(c_tilde, 1e-6), tau0=tau0)
        records = recompute_radius(records, fitted)
        print(f"fitted constants: C_tilde={c_tilde:.6g} C={c_fit:.6g}")

    out = _output_dir(config.directory)
    _write_series(out / config.series, records)
    if config.spectra:
        _write_spectrum(out / f"{config.spectra}_final.csv", result.state)
    if config.checkpoint:
        from .checkpoint import save_checkpoint

        save_checkpoint(out / config.checkpoint, result.state,
                        config.params, records[-1].tau)
    print(f"status: {result.status}; wrote {out / config.series}")
    return 0 if result.status == "completed" else 2


def cmd_run(args) -> int:
    from .config import ConfigError, load_config

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    state = _build_state(config)
    return _execute_run(config, state)


def cmd_resume(args) -> int:
    from .checkpoint import CheckpointError, load_checkpoint
    from .config import ConfigError, load_config

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        state, _params, tau = load_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    if state.grid.n != config.n:
        print(
            f"config error: checkpoint grid n={state.grid.n} does not match "
            f"config grid.n={config.n}",
            file=sys.stderr,
        )
        return 1
    if state.t >= config.t_end:
        print(
            f"config error: checkpoint time t={state.t} is already past "
            f"t_end={config.t_end}",
            file=sys.stderr,
        )
        return 1
    return _execute_run(config, state, start_tau=tau)


def cmd_fit_radius(args) -> int:
    from .checkpoint import CheckpointError, load_checkpoint
    from .norms import RadiusFitError, fit_radius
    from .operators import curl
    from .solver import _pair_max_field

    try:
        state, _params, tau = load_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    try:
        fitted = fit_radius(
            _pair_max_field(curl(state.u), curl(state.h)), args.s
        )
    except RadiusFitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2
    print(f"t={_fmt(state.t)} tau_tracked={_fmt(tau)} tau_fit={_fmt(fitted)}")
    return 0


def _verify_identities(seed: int, reports: list) -> None:
    from .lab import cancellation_residual, triad_decomposition_check
    from .operators import MultiplierSpec, curl
    from .spectral import Grid, random_band

    grid = Grid(16)
    st = random_band(grid, seed=seed, kmax=4, amplitude=1.0)
    omega = curl(st.u)
    current = curl(st.h)
    spec = MultiplierSpec(m=1, r=1.5, tau=0.2, s=1.5)
    for tag in ("3.3", "3.7", "3.15", "3.23", "3.25", "3.32"):
        rep = triad_decomposition_check(st.u, st.h, omega, current, spec, tag)
        reports.append((f"identity-{tag}", rep.residual, rep.residual < 1e-11))
    res = cancellation_residual(st.u, omega, spec)
    reports.append(("cancellation", res, res < 1e-12))


def _verify_inequalities(bound: int, reports: list) -> None:
    from .lab import scalar_inequality_suite

    for name, rep in scalar_inequality_suite(bound, (1.0, 1.5, 2.0)).items():
        value = rep.empirical_C if np.isfinite(rep.empirical_C) else rep.worst_margin
        reports.append((f"scalar-{name}", value, rep.violations == 0))


def _verify_balance(reports: list) -> None:
    from .lab import energy_balance_check
    from .operators import MultiplierSpec
    from .spectral import Grid, taylor_green_mhd

    state = taylor_green_mhd(Grid(16))
    spec = MultiplierSpec(m=3, r=1.0, tau=0.1, s=1.0)
    out = energy_balance_check(state, spec, (1e-2, 5e-3, 2.5e-3))
    order = min(out["orders"]) if out["orders"] else float("nan")
    reports.append(("balance-order", order, order >= 1.9))


def cmd_verify(args) -> int:
    suites = ("identities", "inequalities", "balance", "all")
    if args.suite not in suites:
        print(f"unknown suite {args.suite!r}; choose from {suites}",
              file=sys.stderr)
        return 1
    reports: list = []
    if args.suite in ("identities", "all"):
        _verify_identities(args.seed, reports)
    if args.suite in ("inequalities", "all"):
        _verify_inequalities(args.range, reports)
    if args.suite in ("balance", "all"):
        _verify_balance(reports)
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
    p_verify.add_argument("suite")
    p_verify.add_argument("--range", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_fit = sub.add_parser("fit-radius",
                           help="fit the spectral decay radius of a checkpoint")
    p_fit.add_argument("checkpoint")
    p_fit.add_argument("--s", type=float, default=1.0)
    p_fit.set_defaults(func=cmd_fit_radius)

    p_resume = sub.add_parser("resume", help="resume a run from a checkpoint")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("config")
    p_resume.set_defaults(func=cmd_resume)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
