"""Time integration of ideal incompressible MHD with on-line diagnostics.

The primitive pair (u, h) is evolved with classical RK4, `step_rk4`, the
package's one time stepper; the nonlinear terms are evaluated
pseudo-spectrally and dealiased with the 2/3 rule every stage.  A stage's
tendency lives on the 2/3 band only: the products' forward transform makes
just the band's modes (`spectral._band_forward`), and the Leray projection,
the sign flip, the finiteness check and the RK4 sums run on those band
arrays, a `Tendency` carrying them.  At n >= 64 each of these passes but
the finiteness check, one numpy call, runs slab by slab on the transform
pool.  Every nonzero coefficient a step makes has the bits of the full-size
textbook evaluation, and a stepped state, like every initial state
`spectral` builds, is +0.0 outside the band.  The lab checks the weighted
vorticity/current balance on states this stepper produces.  The run loop steps and samples; its records carry the gradient
integral I(t) but no radius, which `radius.RadiusTracker` fills in
afterwards.  A state the loop samples or takes a CFL step from is
transformed once, by the first RK4 stage of the step that follows,
`rhs_primitive(state, "maxima")`, whose `Tendency` also carries the CFL
speed and the gradient sup-norms.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .norms import (
    GevreyParams,
    NormRecord,
    RadiusFitError,
    fit_radius,
    gradient_sups,
    mode_amplitude,
    state_norms,
    sup_gradient,
)
from .operators import _ADVECTION, curl, gradient_physical, inner_l2
from .spectral import (
    MHDState,
    SpectralField,
    _band,
    _band_forward,
    _from_band,
    _leray_slab,
    _over_slabs,
    to_physical,
)


class StepError(RuntimeError):
    """Non-finite values appeared during a time step."""


@dataclass
class Tendency:
    """Time derivatives of the primitive pair (u, h), on the 2/3 band.

    band holds du's three components, then dh's, at the band's modes: shape
    (6, B, B, B) in `spectral._Band`'s layout; both are zero at every other
    mode.  The state's collocation maxima are None unless
    `rhs_primitive`'s `reduce` asked for them.
    """

    band: np.ndarray
    speed: float | None = None  # max(|u| + |h|), which sets the CFL step
    grad_u: tuple | None = None  # sup_gradient(u): max |grad u|, max |curl u|
    grad_h: tuple | None = None  # sup_gradient(h)


@dataclass
class DiagnosticsRecord:
    """One row of run diagnostics at time t."""

    t: float
    energy: float
    cross_helicity: float
    bkm_integrand: float
    grad_sum: float
    norms: NormRecord
    tau_fit: float
    grad_integral: float = 0.0  # I(t), the time integral of grad_sum; by run
    tau: float = float("nan")  # this and tau_lower: by RadiusTracker.track
    tau_lower: float = float("nan")


@dataclass
class RunResult:
    records: list
    state: MHDState
    status: str  # "completed" | "blow-up" | "non-finite"


def _advect_slab(s, phys, grad_u, prod):
    """Slab s of prod = ((u.grad)u, (h.grad)u), phys holding u then h."""
    g = grad_u[:, :, s]
    np.einsum(_ADVECTION, phys[:3, s], g, out=prod[:3, s])
    np.einsum(_ADVECTION, phys[3:, s], g, out=prod[3:, s])


def _advect_difference_slab(s, phys, grad_h, prod, tmp):
    """Slab s of prod, as _advect_slab left it, less the products with grad h.

    prod becomes ((u.grad)u - (h.grad)h, (u.grad)h - (h.grad)u); tmp holds
    each product with grad h before its subtraction.
    """
    g, tmp = grad_h[:, :, s], tmp[:, s]
    first, second = prod[:3, s], prod[3:, s]
    np.einsum(_ADVECTION, phys[3:, s], g, out=tmp)
    np.subtract(first, tmp, out=first)
    np.einsum(_ADVECTION, phys[:3, s], g, out=tmp)
    np.subtract(tmp, second, out=second)


def _norm_rows(x, out, tmp) -> None:
    """np.linalg.norm(x, axis=0) of three rows x into out, rounded as it
    rounds: sqrt((x0 x0 + x1 x1) + x2 x2); tmp is scratch."""
    np.multiply(x[0], x[0], out=out)
    for xi in x[1:]:
        np.multiply(xi, xi, out=tmp)
        out += tmp
    np.sqrt(out, out=out)


def _speed_slab(s, phys, scratch):
    speed, norm_h, tmp = scratch[:, s]
    _norm_rows(phys[:3, s], speed, tmp)
    _norm_rows(phys[3:, s], norm_h, tmp)
    speed += norm_h
    return speed.max()


def _max_speed(phys: np.ndarray) -> float:
    """max(|u| + |h|) over the collocation points of stacked u, h samples."""
    n = phys.shape[-1]
    scratch = np.empty((3, n, n, n))
    # np.max of the slab maxima, not max(), so a NaN is kept.
    return float(np.max(_over_slabs(n, _speed_slab, phys, scratch)))


def _nonlinear(state: MHDState, reduce: str | None):
    """Physical-space evaluation of (u.grad)u - (h.grad)h and (u.grad)h - (h.grad)u.

    Shares the transforms of u, h and their gradients across the four
    advection terms, with one gradient tensor alive at a time.  Returns
    (band, speed, sups_u, sups_h): the 2/3-rule band of the two products'
    forward transforms, then the maxima `reduce` asks for from those
    samples and tensors, None where it asks for none.
    """
    grid = state.grid
    phys = to_physical(state.u, state.h)
    speed = _max_speed(phys) if reduce else None
    sups = reduce == "maxima"
    prod = np.empty_like(phys)
    grad = gradient_physical(state.u)
    sups_u = gradient_sups(grad) if sups else None
    _over_slabs(grid.n, _advect_slab, phys, grad, prod)
    del grad
    grad = gradient_physical(state.h)
    tmp = np.empty_like(phys[:3])
    _over_slabs(grid.n, _advect_difference_slab, phys, grad, prod, tmp)
    del phys, tmp
    sups_h = gradient_sups(grad) if sups else None
    del grad
    return _band_forward(prod), speed, sups_u, sups_h


def _project_slab(s, band, kdotv, term, k, k2norm, negate):
    for c in (band[:3], band[3:]):
        _leray_slab(s, c, kdotv, term, k, k2norm)
        if negate:
            # The complex product with -1.0, not np.negative, whose zeros
            # would carry other signs.
            np.multiply(c[:, s], -1.0, out=c[:, s])


def _project_band(band: np.ndarray, n: int, negate: bool) -> None:
    """Leray-project (then, with `negate`, negate) both fields of a band
    array of an n-grid in place, and pin k = 0 to 0."""
    tables = _band(n)
    kdotv, term = np.empty((2, *band.shape[1:]), dtype=np.complex128)
    _over_slabs(n, _project_slab, band, kdotv, term, tables.k, tables.k2norm,
                negate, planes=tables.width)
    band[:, 0, 0, 0] = 0.0


def rhs_primitive(state: MHDState, reduce: str | None = None) -> Tendency:
    """du = -P[(u.grad)u - (h.grad)h], dh = -P[(u.grad)h - (h.grad)u].

    `reduce` asks the tendency to carry the state's collocation maxima too,
    reduced from the samples and gradient tensors the evaluation makes
    anyway, so a caller that steps from the state transforms it once:
    "speed" for the speed alone, "maxima" for it and both gradient
    sup-norms.
    """
    if reduce not in (None, "speed", "maxima"):
        raise ValueError(
            f"reduce must be None, 'speed' or 'maxima', got {reduce!r}")
    band, *maxima = _nonlinear(state, reduce)
    _project_band(band, state.grid.n, negate=True)
    return Tendency(band, *maxima)


# The RK4 passes below run on band slab s, band indices s of the first mode
# axis.  y and y0 are the full coefficient arrays of u and h, the others band
# arrays of both; each product is rounded before its sum.

def _stage_slab(s, y, y0, a, k, band):
    """y = y0 + a k at the band's modes."""
    for yf, y0f, kf in zip(y, y0, (k[:3], k[3:])):
        for b, g in band.blocks(s):
            np.multiply(a, kf[b], out=yf[g])
            np.add(y0f[g], yf[g], out=yf[g])


def _sum_slab(s, total, weight, k):
    """total = total + weight k, the product written into k."""
    np.multiply(weight, k[:, s], out=k[:, s])
    np.add(total[:, s], k[:, s], out=total[:, s])


def _update_slab(s, total, y0, a, band):
    """total = y0 + a total, y0 read at the band's modes."""
    for tf, y0f in zip((total[:3], total[3:]), y0):
        for b, g in band.blocks(s):
            np.multiply(a, tf[b], out=tf[b])
            np.add(y0f[g], tf[b], out=tf[b])


def _require_positive(name: str, value: float) -> None:
    """Raise a ValueError naming the argument unless value is finite, > 0."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _cfl_dt(speed: float, spacing: float, cfl: float) -> float:
    """cfl * dx / speed; infinite for a state at rest."""
    if speed == 0.0:
        return np.inf
    return float(cfl * spacing / speed)


def cfl_timestep(state: MHDState, cfl: float = 0.5) -> float:
    """dt = cfl * dx / max(|u| + |h|) at collocation points."""
    _require_positive("cfl", cfl)
    speed = _max_speed(to_physical(state.u, state.h))
    return _cfl_dt(speed, state.grid.spacing, cfl)


def step_rk4(state: MHDState, dt: float,
             k1: Tendency | None = None) -> MHDState:
    """Classical 4-stage explicit step; output re-projected and dealiased.

    The output is +0.0 outside the 2/3 band.  k1, when given, is
    rhs_primitive(state) evaluated by the caller; the step sums the stages
    into its band.  A non-finite stage tendency raises StepError.
    """
    _require_positive("dt", dt)
    grid, n, band = state.grid, state.grid.n, _band(state.grid.n)
    y0 = (state.u.coeffs, state.h.coeffs)

    def checked(tend: Tendency, t_stage: float) -> np.ndarray:
        if not np.isfinite(tend.band).all():
            raise StepError(
                f"non-finite tendency at t={t_stage:.6g} (dt={dt:.3g})"
            )
        return tend.band

    # The tendencies are zero outside the 2/3 band, so every stage works on
    # the band alone.  The update is y0 + dt/6 * (((k1 + 2 k2) + 2 k3) + k4),
    # summed in that order into k1's band: a stage derivative is weighted,
    # in its own array, and summed once the next stage input is made from
    # it, so only one is alive while a stage runs.  A stage input is y0 with
    # y0 + a k written into its band, in one copy of y0 whose other modes
    # are never written; the step makes no other temporaries of its own,
    # and every pass but the finiteness check runs slab by slab on the
    # transform pool at n >= 64.
    # This is the textbook combination evaluated left to right with the
    # scalar as the left operand, bit for bit at every nonzero coefficient,
    # which the reference outputs depend on.
    total = checked(rhs_primitive(state) if k1 is None else k1, state.t)
    k = total
    y = (y0[0].copy(), y0[1].copy())
    for frac, weight in ((0.5, None), (0.5, 2), (1.0, 2)):
        _over_slabs(n, _stage_slab, y, y0, frac * dt, k, band,
                    planes=band.width)
        if weight is not None:
            _over_slabs(n, _sum_slab, total, weight, k, planes=band.width)
        del k
        t_stage = state.t + frac * dt
        k = checked(rhs_primitive(MHDState(SpectralField(grid, y[0]),
                                           SpectralField(grid, y[1]),
                                           t_stage)), t_stage)
    _over_slabs(n, _sum_slab, total, 1, k, planes=band.width)
    del k, y
    _over_slabs(n, _update_slab, total, y0, dt / 6.0, band,
                planes=band.width)
    _project_band(total, n, negate=False)
    return MHDState(SpectralField(grid, _from_band(total[:3], n)),
                    SpectralField(grid, _from_band(total[3:], n)),
                    state.t + dt)


def energy(state: MHDState) -> float:
    return 0.5 * (inner_l2(state.u, state.u) + inner_l2(state.h, state.h))


def cross_helicity(state: MHDState) -> float:
    return inner_l2(state.u, state.h)


BLOWUP_FACTOR = 1e6  # bound on the growth of bkm_integrand in a run


def _sample_diagnostics(state: MHDState, params: GevreyParams,
                        stage: Tendency | None = None):
    """The record of a state with every column but the radius ones.

    The gradient sup-norms come from `stage`, the state's first stage with
    its maxima, when the caller has it, else from sup_gradient.
    """
    omega = curl(state.u)
    current = curl(state.h)
    if stage is None:
        sups = sup_gradient(state.u), sup_gradient(state.h)
    else:
        sups = stage.grad_u, stage.grad_h
    (grad_u, omega_sup), (grad_h, current_sup) = sups
    norms = state_norms(omega, current, params)
    try:
        tau_fit = fit_radius(mode_amplitude(omega, current), params.s)
    except RadiusFitError:
        tau_fit = float("nan")
    del omega, current
    return DiagnosticsRecord(
        t=state.t, energy=energy(state), cross_helicity=cross_helicity(state),
        bkm_integrand=omega_sup + current_sup, grad_sum=grad_u + grad_h,
        norms=norms, tau_fit=tau_fit,
    )


def run(state: MHDState, *, params: GevreyParams, t_end: float,
        dt: float | None = None, cfl: float | None = None,
        cadence: int = 1) -> RunResult:
    """Step until t_end, sampling diagnostics every `cadence` steps.

    Every sample record, the initial one first, carries I(t), the trapezoidal
    integral of grad_sum over the records so far; tau and tau_lower are left
    for `radius.RadiusTracker`.  The run aborts with status "blow-up" when
    bkm_integrand grows by more than BLOWUP_FACTOR from its initial value,
    and with status "non-finite" when a step produces non-finite values; the
    state returned is then the one before that step, and the last record
    samples it.  dt or cfl must be finite and > 0, t_end finite and
    cadence an integer >= 1.
    """
    if (dt is None) == (cfl is None):
        raise ValueError("exactly one of dt and cfl must be given")
    _require_positive(*(("dt", dt) if cfl is None else ("cfl", cfl)))
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not isinstance(cadence, numbers.Integral) or cadence < 1:
        raise ValueError(f"cadence must be an integer >= 1, got {cadence!r}")
    params.warn_if_subcritical()
    records = []
    # One stop time for the loop and the final off-cadence sample, so a
    # completed run's last record always describes the returned state.
    t_stop = t_end - 1e-12 * max(t_end, 1.0)

    # A state that is sampled or takes a CFL step, and is stepped from, has
    # its first RK4 stage evaluated once: the sample and the CFL step read
    # its maxima and the step takes it as k1.  A CFL step from a state
    # between samples reduces the speed alone.  A sample with no step after
    # it transforms its state itself.
    def first_stage(state: MHDState) -> Tendency | None:
        return rhs_primitive(state, "maxima") if state.t < t_stop else None

    def sample(state: MHDState, k1: Tendency | None = None) -> None:
        rec = _sample_diagnostics(state, params, k1)
        if records:
            last = records[-1]
            rec.grad_integral = (last.grad_integral + 0.5 * (
                rec.grad_sum + last.grad_sum) * (rec.t - last.t))
        records.append(rec)

    k1 = first_stage(state)
    sample(state, k1)
    bkm0 = max(records[0].bkm_integrand, 1e-300)
    status = "completed"
    steps_done = 0
    while state.t < t_stop:
        if cfl is not None:
            if k1 is None:  # a state between samples
                k1 = rhs_primitive(state, "speed")
            step_dt = min(_cfl_dt(k1.speed, state.grid.spacing, cfl),
                          t_end - state.t)
        else:
            step_dt = min(dt, t_end - state.t)
        try:
            state = step_rk4(state, step_dt, k1)
        except StepError:
            status = "non-finite"
            break
        k1 = None  # the step summed its stages into k1's arrays
        steps_done += 1
        if steps_done % cadence != 0 and state.t < t_stop:
            continue

        k1 = first_stage(state)
        sample(state, k1)
        if records[-1].bkm_integrand > BLOWUP_FACTOR * bkm0:
            status = "blow-up"
            break
    if status == "non-finite" and records[-1].t != state.t:
        # The series, spectrum and checkpoint written from the result must
        # all describe the returned state, so sample it off cadence.
        sample(state)
    return RunResult(records, state, status)
