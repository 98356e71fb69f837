"""Time integration of ideal incompressible MHD with on-line diagnostics.

The primitive pair (u, h) is evolved with classical RK4, `step_rk4`, the
package's one time stepper; the nonlinear terms are evaluated
pseudo-spectrally, Leray-projected and dealiased every stage.  The lab checks
the weighted vorticity/current balance on states this stepper produces.  The
run loop steps and samples; its records carry the gradient integral I(t) but
no radius, which `radius.RadiusTracker` fills in afterwards.  A state the
loop samples or takes a CFL step from is transformed once, by the first RK4
stage of the step that follows, which also reduces the CFL speed and the
gradient sup-norms.
"""

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
from .operators import curl, gradient_physical, inner_l2
from .spectral import (
    MHDState,
    SpectralField,
    _dealias_in_place,
    _leray_in_place,
    _over_slabs,
    from_physical,
    to_physical,
)


class StepError(RuntimeError):
    """Non-finite values appeared during a time step."""


@dataclass(frozen=True)
class StateMaxima:
    """Collocation maxima of a primitive state, from its first RK4 stage."""

    speed: float  # max(|u| + |h|), which sets the CFL step
    grad_u: tuple  # sup_gradient(u): max |grad u| and max |curl u|
    grad_h: tuple  # sup_gradient(h)


@dataclass
class Tendency:
    """Time derivatives of the primitive pair (u, h)."""

    du: SpectralField
    dh: SpectralField
    maxima: StateMaxima | None = None  # rhs_primitive(state, maxima=True)


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


_ADVECTION = "mxyz,mcxyz->cxyz"  # (a.grad)b from a and the gradient of b


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


def _max_speed(phys: np.ndarray) -> float:
    """max(|u| + |h|) over the collocation points of stacked u, h samples."""
    return float(np.max(np.linalg.norm(phys[:3], axis=0)
                        + np.linalg.norm(phys[3:], axis=0)))


def _nonlinear(state: MHDState, reduce: str | None):
    """Physical-space evaluation of (u.grad)u - (h.grad)h and (u.grad)h - (h.grad)u.

    Shares the transforms of u, h and their gradients across the four
    advection terms, with one gradient tensor alive at a time; returns the
    forward transforms of the two products, not yet dealiased, and what
    `reduce` asks for from those samples and tensors: the StateMaxima for
    "maxima", the CFL speed alone for "speed", else None.
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
    found = StateMaxima(speed, sups_u, gradient_sups(grad)) if sups else speed
    del grad
    return from_physical(grid, prod), found


def _negate_slab(s, c):
    # The complex product with -1.0, not np.negative, whose zeros would
    # carry other signs.
    np.multiply(c[:, s], -1.0, out=c[:, s])


def _rhs_primitive(state: MHDState, reduce: str | None):
    """rhs_primitive's du and dh, then what `reduce` asks `_nonlinear` for."""
    (nlu, nlh), found = _nonlinear(state, reduce)
    for nl in (nlu, nlh):
        # The projection zeroes k = 0 first, so the product makes it -0.0.
        _leray_in_place(_dealias_in_place(nl))
        _over_slabs(nl.grid.n, _negate_slab, nl.coeffs)
    return nlu, nlh, found


def rhs_primitive(state: MHDState, maxima: bool = False) -> Tendency:
    """du = -P[(u.grad)u - (h.grad)h], dh = -P[(u.grad)h - (h.grad)u].

    With `maxima` the tendency also carries the state's StateMaxima, reduced
    from the samples and gradient tensors the evaluation makes anyway, so a
    caller that steps from the state transforms it once.
    """
    return Tendency(*_rhs_primitive(state, "maxima" if maxima else None))


def _axpy_slab(s, out, base, a, x, prod):
    """out = base + prod on slab s, prod = a x rounded first; per array."""
    for oi, bi, xi, pi in zip(out, base, x, prod):
        np.multiply(a, xi[:, s], out=pi[:, s])
        np.add(bi[:, s], pi[:, s], out=oi[:, s])


def _finite_slab(s, arrays, flags):
    """Whether slab s of every array is finite; flags is the scratch."""
    ok = True
    for c in arrays:
        np.isfinite(c[:, s], out=flags[:, s])
        ok = ok and bool(flags[:, s].all())
    return ok


def _cfl_dt(speed: float, spacing: float, cfl: float) -> float:
    """cfl * dx / speed; infinite for a state at rest."""
    if speed == 0.0:
        return np.inf
    return float(cfl * spacing / speed)


def cfl_timestep(state: MHDState, cfl: float = 0.5) -> float:
    """dt = cfl * dx / max(|u| + |h|) at collocation points."""
    speed = _max_speed(to_physical(state.u, state.h))
    return _cfl_dt(speed, state.grid.spacing, cfl)


def step_rk4(state: MHDState, dt: float,
             k1: Tendency | None = None) -> MHDState:
    """Classical 4-stage explicit step; output re-projected and dealiased.

    k1, when given, is rhs_primitive(state) evaluated by the caller; the
    step sums the stages into its arrays.  A non-finite stage tendency
    raises StepError.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid, n = state.grid, state.grid.n
    y0 = (state.u.coeffs, state.h.coeffs)
    flags = np.empty(y0[0].shape, dtype=bool)

    def checked(tend: Tendency, t_stage: float) -> tuple:
        k = (tend.du.coeffs, tend.dh.coeffs)
        if not all(_over_slabs(n, _finite_slab, k, flags)):
            raise StepError(
                f"non-finite tendency at t={t_stage:.6g} (dt={dt:.3g})"
            )
        return k

    # The update is y0 + dt/6 * (((k1 + 2 k2) + 2 k3) + k4), summed in that
    # order into k1's arrays as each stage finishes, so only one stage
    # derivative is alive at a time.  One preallocated buffer holds each
    # stage input and, once its stage has run, that stage's weighted
    # derivative, so the step makes no temporaries of its own; every pass
    # runs slab by slab on the transform pool at n >= 64.  This is the
    # textbook combination evaluated left to right with the scalar as the
    # left operand, bit for bit, which the reference outputs depend on.
    total = checked(rhs_primitive(state) if k1 is None else k1, state.t)
    k = total
    y = tuple(np.empty_like(yi) for yi in y0)
    for frac, weight in ((0.5, 2), (0.5, 2), (1.0, 1)):
        _over_slabs(n, _axpy_slab, y, y0, frac * dt, k, y)
        del k
        t_stage = state.t + frac * dt
        k = checked(rhs_primitive(MHDState(SpectralField(grid, y[0]),
                                           SpectralField(grid, y[1]),
                                           t_stage)), t_stage)
        _over_slabs(n, _axpy_slab, total, total, weight, k, y)
    del k, y
    _over_slabs(n, _axpy_slab, total, y0, dt / 6.0, total, total)
    u = _dealias_in_place(_leray_in_place(SpectralField(grid, total[0])))
    h = _dealias_in_place(_leray_in_place(SpectralField(grid, total[1])))
    return MHDState(u, h, state.t + dt)


def energy(state: MHDState) -> float:
    return 0.5 * (inner_l2(state.u, state.u) + inner_l2(state.h, state.h))


def cross_helicity(state: MHDState) -> float:
    return inner_l2(state.u, state.h)


BLOWUP_FACTOR = 1e6  # bound on the growth of bkm_integrand in a run


def _sample_diagnostics(state: MHDState, params: GevreyParams,
                        maxima: StateMaxima | None = None):
    """The record of a state with every column but the radius ones.

    The gradient sup-norms come from `maxima` when the caller has the
    state's first stage, else from sup_gradient.
    """
    omega = curl(state.u)
    current = curl(state.h)
    if maxima is None:
        sups = sup_gradient(state.u), sup_gradient(state.h)
    else:
        sups = maxima.grad_u, maxima.grad_h
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
    samples it.
    """
    if (dt is None) == (cfl is None):
        raise ValueError("exactly one of dt and cfl must be given")
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
        return rhs_primitive(state, maxima=True) if state.t < t_stop else None

    def sample(state: MHDState, k1: Tendency | None = None) -> None:
        rec = _sample_diagnostics(state, params,
                                  None if k1 is None else k1.maxima)
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
                du, dh, speed = _rhs_primitive(state, "speed")
                k1 = Tendency(du, dh)
            else:
                speed = k1.maxima.speed
            step_dt = min(_cfl_dt(speed, state.grid.spacing, cfl),
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
