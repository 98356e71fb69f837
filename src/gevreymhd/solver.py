"""Time integration of ideal incompressible MHD with on-line diagnostics.

The primitive pair (u, h) is evolved with classical RK4; the nonlinear terms
are evaluated pseudo-spectrally, Leray-projected and dealiased every stage.
The vorticity/current pair and its evolution equation are available as
diagnostics, and the run loop feeds the analyticity-radius tracker.
"""

from dataclasses import dataclass, replace

import numpy as np

from .norms import GevreyParams, NormRecord, RadiusFitError, fit_radius, state_norms
from .operators import biot_savart, curl, gradient_physical, inner_l2
from .radius import RadiusModel, RadiusTracker
from .spectral import (
    MHDState,
    SpectralField,
    dealias,
    from_physical,
    leray_project,
    to_physical,
)


class StepError(RuntimeError):
    """Non-finite values appeared during a time step."""


@dataclass
class Tendency:
    """Time derivatives of a pair of fields (primitive or curled form)."""

    du: SpectralField
    dh: SpectralField


@dataclass
class DiagnosticsRecord:
    """One row of run diagnostics at time t."""

    t: float
    energy: float
    cross_helicity: float
    bkm_integrand: float
    grad_sum: float
    norms: NormRecord
    tau: float
    tau_fit: float
    tau_lower: float


@dataclass
class RunResult:
    records: list
    state: MHDState
    status: str  # "completed" | "blow-up" | "radius-collapse" | "non-finite"
    model: RadiusModel | None = None


def _nonlinear(state: MHDState):
    """Physical-space evaluation of (u.grad)u - (h.grad)h and (u.grad)h - (h.grad)u.

    Shares the transforms of u, h and their gradients across the four
    advection terms; returns the two spectral, dealiased products.
    """
    grid = state.grid
    uphys = to_physical(state.u)
    hphys = to_physical(state.h)
    gradu = gradient_physical(state.u)
    gradh = gradient_physical(state.h)
    adv_uu = np.einsum("mxyz,mcxyz->cxyz", uphys, gradu)
    adv_hh = np.einsum("mxyz,mcxyz->cxyz", hphys, gradh)
    adv_uh = np.einsum("mxyz,mcxyz->cxyz", uphys, gradh)
    adv_hu = np.einsum("mxyz,mcxyz->cxyz", hphys, gradu)
    nlu = dealias(from_physical(grid, adv_uu - adv_hh))
    nlh = dealias(from_physical(grid, adv_uh - adv_hu))
    return nlu, nlh


def rhs_primitive(state: MHDState) -> Tendency:
    """du = -P[(u.grad)u - (h.grad)h], dh = -P[(u.grad)h - (h.grad)u]."""
    nlu, nlh = _nonlinear(state)
    du = leray_project(nlu)
    dh = leray_project(nlh)
    du.coeffs *= -1.0
    dh.coeffs *= -1.0
    return Tendency(du, dh)


def _curl_tendency(u: SpectralField, h: SpectralField, omega: SpectralField,
                   current: SpectralField) -> Tendency:
    """Vorticity/current tendency for given transporting fields.

    d omega = -(u.grad)omega + (h.grad)J + (omega.grad)u - (J.grad)h
    d J     = -(u.grad)J + (h.grad)omega + (omega.grad)h - (J.grad)u

    Each field is transformed and differentiated once; one gradient tensor
    is alive at a time, and its two products go into the physical-space sums.
    """
    grid = omega.grid
    uphys, hphys = to_physical(u), to_physical(h)
    wphys, jphys = to_physical(omega), to_physical(current)
    dw = np.zeros_like(uphys)
    dj = np.zeros_like(uphys)
    # Each gradient enters one product in d omega and one in d J:
    # (field differentiated, (transporter, sign) in d omega, same in d J).
    for field, (a, sa), (b, sb) in (
        (omega, (uphys, -1.0), (hphys, 1.0)),
        (current, (hphys, 1.0), (uphys, -1.0)),
        (u, (wphys, 1.0), (jphys, -1.0)),
        (h, (jphys, -1.0), (wphys, 1.0)),
    ):
        grad = gradient_physical(field)
        dw += sa * np.einsum("mxyz,mcxyz->cxyz", a, grad)
        dj += sb * np.einsum("mxyz,mcxyz->cxyz", b, grad)
        del grad
    return Tendency(dealias(from_physical(grid, dw)),
                    dealias(from_physical(grid, dj)))


def rhs_curl(state: MHDState) -> Tendency:
    """Tendency of the vorticity/current pair of a primitive state."""
    return _curl_tendency(state.u, state.h, curl(state.u), curl(state.h))


def cross_gradient_curl_term(u: SpectralField, h: SpectralField) -> SpectralField:
    """The gradient-coupling part of the curl of the induction nonlinearity.

    curl((a.grad)b) = (a.grad)(curl b) + E(a, b) with
    E(a, b)_i = eps_{ijk} d_j a_l d_l b_k; this returns the spectral,
    dealiased E(u, h) - E(h, u).
    """
    gu = gradient_physical(u)
    gh = gradient_physical(h)
    # gradient_physical[m, c] = d_m of component c, so d_j u_l = gu[j, l]
    # and d_l h_k = gh[:, k] contracted over the leading axis l.
    n = u.grid.n
    e_uh = np.empty((3, n, n, n))
    e_hu = np.empty((3, n, n, n))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        e_uh[i] = (np.einsum("lxyz,lxyz->xyz", gu[j], gh[:, k])
                   - np.einsum("lxyz,lxyz->xyz", gu[k], gh[:, j]))
        e_hu[i] = (np.einsum("lxyz,lxyz->xyz", gh[j], gu[:, k])
                   - np.einsum("lxyz,lxyz->xyz", gh[k], gu[:, j]))
    return dealias(from_physical(u.grid, e_uh - e_hu))


def rhs_curl_pair(omega: SpectralField, current: SpectralField) -> Tendency:
    """Tendency of a prognostic vorticity/current pair.

    The transporting fields are recovered by curl inversion of the
    divergence-free parts of the pair; the pair itself is not projected, so
    this closes the vorticity/current system as stated, whose current
    tendency carries a gradient part.
    """
    return _curl_tendency(biot_savart(leray_project(omega)),
                          biot_savart(leray_project(current)), omega, current)


def _rk4(tendency, y0: tuple, t: float, dt: float, what: str) -> tuple:
    """One classical RK4 step over a tuple of coefficient arrays.

    tendency(arrays, t) returns a tuple of new derivative arrays, which this
    function may overwrite; a non-finite stage tendency raises StepError
    naming `what`.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")

    def stage(y, t_stage):
        k = tendency(y, t_stage)
        if not all(np.all(np.isfinite(c)) for c in k):
            raise StepError(
                f"non-finite {what} at t={t_stage:.6g} (dt={dt:.3g})"
            )
        return k

    # The update is y0 + dt/6 * (((k1 + 2 k2) + 2 k3) + k4), summed in that
    # order into k1's arrays as each stage finishes, so only one stage
    # derivative is alive at a time.  This is the textbook combination
    # evaluated left to right, bit for bit, which the reference outputs of
    # the primitive stepper depend on.
    k = stage(y0, t)
    total = k
    for frac, weight in ((0.5, 2), (0.5, 2), (1.0, 1)):
        y = tuple(yi + frac * dt * c for yi, c in zip(y0, k))
        del k
        k = stage(y, t + frac * dt)
        del y
        for acc, c in zip(total, k):
            acc += weight * c
    return tuple(yi + dt / 6.0 * acc for yi, acc in zip(y0, total))


def step_rk4_curl(omega: SpectralField, current: SpectralField,
                  dt: float) -> tuple:
    """One RK4 step of the prognostic vorticity/current system."""
    grid = omega.grid

    def tendency(y, t):
        tend = rhs_curl_pair(SpectralField(grid, y[0]),
                             SpectralField(grid, y[1]))
        return tend.du.coeffs, tend.dh.coeffs

    wnew, jnew = _rk4(tendency, (omega.coeffs, current.coeffs), 0.0, dt,
                      "curl-pair tendency")
    return (dealias(SpectralField(grid, wnew)),
            dealias(SpectralField(grid, jnew)))


def cfl_timestep(state: MHDState, cfl: float = 0.5) -> float:
    """dt = cfl * dx / max(|u| + |h|) at collocation points."""
    speed = np.max(
        np.linalg.norm(to_physical(state.u), axis=0)
        + np.linalg.norm(to_physical(state.h), axis=0)
    )
    if speed == 0.0:
        return np.inf
    return float(cfl * state.grid.spacing / speed)


def step_rk4(state: MHDState, dt: float) -> MHDState:
    """Classical 4-stage explicit step; output re-projected and dealiased."""
    grid = state.grid

    def tendency(y, t):
        tend = rhs_primitive(MHDState(SpectralField(grid, y[0]),
                                      SpectralField(grid, y[1]), t))
        return tend.du.coeffs, tend.dh.coeffs

    unew, hnew = _rk4(tendency, (state.u.coeffs, state.h.coeffs), state.t, dt,
                      "tendency")
    u = dealias(leray_project(SpectralField(grid, unew)))
    h = dealias(leray_project(SpectralField(grid, hnew)))
    return MHDState(u, h, state.t + dt)


def energy(state: MHDState) -> float:
    return 0.5 * (inner_l2(state.u, state.u) + inner_l2(state.h, state.h))


def cross_helicity(state: MHDState) -> float:
    return inner_l2(state.u, state.h)


def _gradient_sups(v: SpectralField) -> tuple:
    """Max-abs gradient entry and collocation max of |curl v|, one transform.

    The curl is the antisymmetric part of the gradient tensor, whose entry
    [m, c] is d_m v_c.
    """
    g = gradient_physical(v)
    rot = np.stack((g[1, 2] - g[2, 1], g[2, 0] - g[0, 2], g[0, 1] - g[1, 0]))
    return float(np.max(np.abs(g))), float(np.max(np.linalg.norm(rot, axis=0)))


def _sample_diagnostics(state: MHDState, params: GevreyParams,
                        fit_s: float) -> tuple:
    omega = curl(state.u)
    current = curl(state.h)
    grad_u, omega_sup = _gradient_sups(state.u)
    grad_h, current_sup = _gradient_sups(state.h)
    norms = state_norms(omega, current, params, grad_u, grad_h)
    try:
        tau_fit = fit_radius(_pair_max_field(omega, current), fit_s)
    except RadiusFitError:
        tau_fit = float("nan")
    return norms, omega_sup + current_sup, grad_u + grad_h, tau_fit


def _pair_max_field(omega: SpectralField, current: SpectralField) -> SpectralField:
    """Mode-wise max-amplitude envelope of the pair, for radius fitting."""
    amp = np.maximum(np.abs(omega.coeffs), np.abs(current.coeffs))
    return SpectralField(omega.grid, amp.astype(np.complex128))


def recompute_radius(records: list, model: RadiusModel) -> list:
    """Re-run the radius tracking over recorded diagnostics with new constants.

    Returns records with tau and tau_lower replaced; the PDE diagnostics are
    untouched.  Useful after fitting the constants from a completed run.
    """
    first = records[0]
    tracker = RadiusTracker(model, first.t, first.grad_sum, first.norms.hr,
                            first.norms.x_norm)
    out = [replace(first, tau=model.tau0, tau_lower=tracker.tau_lower)]
    for rec in records[1:]:
        tracker.advance(rec.t, rec.grad_sum, rec.norms.hr)
        out.append(replace(rec, tau=tracker.tau, tau_lower=tracker.tau_lower))
    return out


def run(state: MHDState, *, params: GevreyParams, t_end: float,
        dt: float | None = None, cfl: float | None = None,
        cadence: int = 1, model: RadiusModel | None = None,
        blowup_factor: float = 1e6) -> RunResult:
    """Step until t_end, sampling diagnostics every `cadence` steps.

    The radius tracker advances at the same cadence using the measured
    gradient sup-norms, Sobolev norm and Gronwall majorant.  The run aborts
    with status "blow-up" when the continuation-criterion integrand grows by
    more than blowup_factor from its initial value, and with status
    "non-finite" when a step produces non-finite values; the state returned
    is then the one before that step, and the last record samples it.
    """
    if (dt is None) == (cfl is None):
        raise ValueError("exactly one of dt and cfl must be given")
    params.warn_if_subcritical()
    if model is None:
        model = RadiusModel(tau0=params.tau if params.tau > 0 else 1.0)
    fit_s = params.s

    norms, bkm, grad_sum, tau_fit = _sample_diagnostics(state, params, fit_s)
    tracker = RadiusTracker(model, state.t, grad_sum, norms.hr, norms.x_norm)
    bkm0 = max(bkm, 1e-300)
    records = [DiagnosticsRecord(
        t=state.t, energy=energy(state), cross_helicity=cross_helicity(state),
        bkm_integrand=bkm, grad_sum=grad_sum, norms=norms,
        tau=model.tau0, tau_fit=tau_fit, tau_lower=model.tau0,
    )]

    def sample(state: MHDState) -> float:
        norms, bkm, grad_sum, tau_fit = _sample_diagnostics(state, params, fit_s)
        tracker.advance(state.t, grad_sum, norms.hr)
        records.append(DiagnosticsRecord(
            t=state.t, energy=energy(state),
            cross_helicity=cross_helicity(state),
            bkm_integrand=bkm, grad_sum=grad_sum, norms=norms,
            tau=tracker.tau, tau_fit=tau_fit, tau_lower=tracker.tau_lower,
        ))
        return bkm

    status = "completed"
    steps_done = 0
    while state.t < t_end - 1e-12 * max(t_end, 1.0):
        if cfl is not None:
            step_dt = min(cfl_timestep(state, cfl), t_end - state.t)
        else:
            step_dt = min(dt, t_end - state.t)
        try:
            state = step_rk4(state, step_dt)
        except StepError:
            status = "non-finite"
            break
        steps_done += 1
        if steps_done % cadence != 0 and state.t < t_end - 1e-12:
            continue

        bkm = sample(state)
        if tracker.collapsed:
            status = "radius-collapse"
            break
        if bkm > blowup_factor * bkm0:
            status = "blow-up"
            break
    if status == "non-finite" and records[-1].t != state.t:
        # The series, spectrum and checkpoint written from the result must
        # all describe the returned state, so sample it off cadence.
        sample(state)
    return RunResult(records, state, status, model)
