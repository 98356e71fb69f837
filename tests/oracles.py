"""Independent reference implementations used to cross-check the package.

Most of this deliberately avoids the package's FFT/vectorized code paths:
plain python loops over explicit mode dictionaries, quadrature sums over
collocation samples, norm weights built as full (n, n, n) arrays, and the
whole-history radius pipeline (cumulative I(t), the Gronwall majorant M(t)
and the Bernoulli closed form) that `solver.run` and RadiusTracker compute
one sample at a time.  rk4_chain is the one driver here: it steps the
package's one-interval radius kernel across a sampled history.  The last
seven functions are test-side compositions of package kernels that the
package itself never calls: the vorticity/current tendency of a primitive
state as the rows of `lab.CURL_TERMS` through `operators.advect`, the
weighted trilinear form through `advect` (transform_trilinear), the cross
gradient term E(u, h) - E(h, u) from the two gradient tensors of u and h
(cross_gradient_curl_term), the brute-force trilinear form, a run loop
that transforms every state once per use, the balance terms as one
transform_trilinear per row, and the energy balance check with a half step
and a full step per dt.
"""

from dataclasses import replace

import numpy as np

from gevreymhd import solver
from gevreymhd.lab import (
    _BALANCE_GROUP,
    CURL_TERMS,
    TINY,
    _curl_norm_sq,
    weighted_inner,
)
from gevreymhd.operators import (
    advect,
    cross_gradient_samples,
    curl,
    gradient_physical,
)
from gevreymhd.radius import _rk4_interval
from gevreymhd.solver import (
    RunResult,
    StepError,
    Tendency,
    _sample_diagnostics,
    cfl_timestep,
    step_rk4,
)
from gevreymhd.spectral import SpectralField
from gevreymhd.triads import (
    extract_band,
    pair_marginal,
    weight_tables,
    weighted_sum,
)


def field_to_modes(field, tol=0.0):
    """Dict {(k1,k2,k3): vec3 complex} from a SpectralField, skipping zeros."""
    modes = field.grid.modes
    out = {}
    c = field.coeffs
    for i1, k1 in enumerate(modes):
        for i2, k2 in enumerate(modes):
            for i3, k3 in enumerate(modes):
                vec = c[:, i1, i2, i3]
                if np.max(np.abs(vec)) > tol:
                    out[(int(k1), int(k2), int(k3))] = vec.copy()
    return out


def naive_weighted_trilinear(a_modes, b_modes, c_modes, m, r, tau, s):
    """i (2pi)^3 sum_{j+k+l=0} (a_j . k)(b_k . c_l) |l_m|^2r e^{2 tau |l_m|^{1/s}}.

    Pure-python triple loop over the mode dictionaries; the weight follows
    the 0^0 = 1 convention.
    """
    total = 0.0 + 0.0j
    for j, aj in a_modes.items():
        for k, bk in b_modes.items():
            l = (-j[0] - k[0], -j[1] - k[1], -j[2] - k[2])
            cl = c_modes.get(l)
            if cl is None:
                continue
            lm = abs(l[m - 1])
            if lm == 0:
                w = 1.0 if r == 0.0 else 0.0
            else:
                w = lm ** (2.0 * r) * np.exp(2.0 * tau * lm ** (1.0 / s))
            ajk = aj[0] * k[0] + aj[1] * k[1] + aj[2] * k[2]
            bc = bk[0] * cl[0] + bk[1] * cl[1] + bk[2] * cl[2]
            total += ajk * bc * w
    return 1j * (2.0 * np.pi) ** 3 * total


def naive_pair_marginal(a_modes, b_modes, c_modes, K, m):
    """P[j_m+K, k_m+K] = sum over j, k with l = -j-k of (a_j . k)(b_k . c_l).

    Pure-python double loop over the mode dictionaries, which must lie in
    the band |k_i| <= K; returns a (2K+1, 2K+1) complex array.
    """
    size = 2 * K + 1
    P = np.zeros((size, size), dtype=np.complex128)
    for j, aj in a_modes.items():
        for k, bk in b_modes.items():
            l = (-j[0] - k[0], -j[1] - k[1], -j[2] - k[2])
            cl = c_modes.get(l)
            if cl is None:
                continue
            ajk = aj[0] * k[0] + aj[1] * k[1] + aj[2] * k[2]
            bc = bk[0] * cl[0] + bk[1] * cl[1] + bk[2] * cl[2]
            P[j[m - 1] + K, k[m - 1] + K] += ajk * bc
    return P


def quadrature_inner(fphys, gphys, n):
    """(2pi/n)^3 sum over collocation points of f . g."""
    return float((2.0 * np.pi / n) ** 3 * np.sum(fphys * gphys))


def naive_sobolev_sq(modes_dict, r):
    """(2pi)^3 sum (1+|k|^2)^r |v_k|^2 from a mode dictionary."""
    total = 0.0
    for k, vec in modes_dict.items():
        k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        total += (1.0 + k2) ** r * float(np.sum(np.abs(vec) ** 2))
    return (2.0 * np.pi) ** 3 * total


def full_array_sobolev_sq(field, r):
    """(2pi)^3 sum (1+|k|^2)^r |v_k|^2 with an (n, n, n) weight array."""
    k1, k2, k3 = field.grid.wavevectors()
    weight = (1.0 + (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)) ** r
    return (2.0 * np.pi) ** 3 * float(
        np.sum(weight * np.abs(field.coeffs) ** 2))


def full_array_directional_sq(field, r, tau, s):
    """sum_m (2pi)^3 sum |k_m|^2r e^{2 tau |k_m|^{1/s}} |v_k|^2, 0^0 = 1.

    Builds each direction's weight as an (n, n, n) array.
    """
    n = field.grid.n
    total = 0.0
    for km in field.grid.wavevectors():
        sym = np.broadcast_to(np.abs(km), (n, n, n)).astype(np.float64)
        w = np.full_like(sym, 1.0 if r == 0.0 else 0.0)
        nz = sym > 0
        w[nz] = np.exp(r * np.log(sym[nz]) + tau * sym[nz] ** (1.0 / s))
        total += np.sum(w**2 * np.abs(field.coeffs) ** 2)
    return (2.0 * np.pi) ** 3 * float(total)


def bernoulli_tau(t: float, tau0: float, a: float, b: float) -> float:
    """Closed-form solution of tau' = -(a tau + b tau^2), tau(0) = tau0."""
    if a == 0.0:
        return tau0 / (1.0 + b * tau0 * t)
    e = np.exp(-a * t)
    return a * tau0 * e / (a + b * tau0 * (1.0 - e))


def cumulative_integral(times, values) -> np.ndarray:
    """Trapezoidal cumulative integral matched to the diagnostic cadence."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(times)
    if len(times) > 1:
        out[1:] = np.cumsum(
            0.5 * (values[1:] + values[:-1]) * np.diff(times)
        )
    return out


def gronwall_majorant(times, hr_series, grad_integral, C: float,
                      tau0: float, x0: float) -> np.ndarray:
    """M(t) = G(t) [x0 + C (1 + tau0) int_0^t hr(sigma)^2 / G(sigma) dsigma].

    G(t) = exp(C * I(t)) with I the accumulated gradient integral; the inner
    integral uses trapezoidal quadrature at the sampling cadence.
    """
    times = np.asarray(times, dtype=np.float64)
    hr = np.asarray(hr_series, dtype=np.float64)
    integral = np.asarray(grad_integral, dtype=np.float64)
    G = np.exp(C * integral)
    inner = cumulative_integral(times, hr**2 / G)
    return G * (x0 + C * (1.0 + tau0) * inner)


def rk4_chain(times, a_series, b_series, tau0: float) -> np.ndarray:
    """tau at every sample: one _rk4_interval call per sample interval."""
    taus = [tau0]
    for i in range(len(times) - 1):
        taus.append(_rk4_interval(taus[-1], times[i], times[i + 1],
                                  a_series[i], a_series[i + 1],
                                  b_series[i], b_series[i + 1]))
    return np.array(taus)


def rhs_curl(state):
    """Tendency of the vorticity/current pair of a primitive state.

    The rows of CURL_TERMS summed per target, each product by advect.
    """
    fields = {"u": state.u, "h": state.h,
              "omega": curl(state.u), "current": curl(state.h)}
    tend = {"omega": 0.0, "current": 0.0}
    for a, b, c, sign, _ in CURL_TERMS:
        tend[c] = tend[c] + sign * advect(fields[a], fields[b]).coeffs
    return Tendency(*(SpectralField(state.grid, tend[c])
                      for c in ("omega", "current")))


def transform_trilinear(a, b, c, spec):
    """<a . grad b, Lam_m^{2r} e^{2 tau Lam_m^{1/s}} c> via FFT products."""
    return weighted_inner(advect(a, b), c, spec)


def cross_gradient_curl_term(u, h):
    """`operators.cross_gradient_samples` of u and h, each differentiated by
    its own `gradient_physical` call."""
    return cross_gradient_samples(u.grid, gradient_physical(u),
                                  gradient_physical(h))


def trilinear_bruteforce(a, b, c, m, r, tau, s, kmax):
    """Direct triple-sum value of <a . grad b, Lam_m^{2r} e^{2 tau Lam_m^{1/s}} c>."""
    A = extract_band(a, kmax)
    B = extract_band(b, kmax)
    C = extract_band(c, kmax)
    P = pair_marginal(A, B, C, kmax, m)
    return weighted_sum(P, weight_tables(kmax, r, tau, s)["full"])


def reference_run(state, *, params, t_end, dt=None, cfl=None, cadence=1):
    """solver.run from its public pieces, each transforming its own state.

    The CFL step, the sample and every RK4 stage evaluate their state
    separately, so a state that is sampled and stepped from is transformed
    three times, and I(t) is the whole-history cumulative_integral; the
    records, the status and the returned state are what `run` must give bit
    for bit.
    """
    records = []

    def sample(state):
        records.append(_sample_diagnostics(state, params))

    sample(state)
    bkm0 = max(records[0].bkm_integrand, 1e-300)
    status, steps_done = "completed", 0
    t_stop = t_end - 1e-12 * max(t_end, 1.0)
    while state.t < t_stop:
        limit = dt if cfl is None else cfl_timestep(state, cfl)
        try:
            state = step_rk4(state, min(limit, t_end - state.t))
        except StepError:
            status = "non-finite"
            break
        steps_done += 1
        if steps_done % cadence != 0 and state.t < t_stop:
            continue
        sample(state)
        if records[-1].bkm_integrand > solver.BLOWUP_FACTOR * bkm0:
            status = "blow-up"
            break
    if status == "non-finite" and records[-1].t != state.t:
        sample(state)
    integral = cumulative_integral([rec.t for rec in records],
                                   [rec.grad_sum for rec in records])
    for rec, value in zip(records, integral):
        rec.grad_integral = float(value)
    return RunResult(records, state, status)


def balance_terms_reference(u, h, spec):
    """lab.balance_terms as one transform_trilinear per row of CURL_TERMS,
    each transforming and differentiating its own fields, plus the K4 cross
    term from its own two gradient tensors."""
    fields = {"u": u, "h": h, "omega": curl(u), "current": curl(h)}
    trilinear = {(a, b, c): transform_trilinear(fields[a], fields[b],
                                                fields[c], spec)
                 for a, b, c, _, _ in CURL_TERMS}
    k = [0.0, 0.0, 0.0]
    for a, b, c, sign, lemma in CURL_TERMS:
        k[_BALANCE_GROUP[lemma]] += sign * trilinear[a, b, c]
    k4 = (trilinear["current", "u", "current"]
          - trilinear["omega", "h", "current"]
          - weighted_inner(cross_gradient_curl_term(u, h), fields["current"],
                           spec))
    return (*k, k4)


def energy_balance_reference(state, spec, dt_values, tau_dot=0.0):
    """lab.energy_balance_check stepping a half step and a full step per dt,
    with balance_terms_reference: 6 steps for 3 dts, whatever they share."""
    n0 = 0.5 * _curl_norm_sq(state, spec)
    defects = []
    for dt in dt_values:
        spec1 = replace(spec, tau=spec.tau + tau_dot * dt)
        spec_h = replace(spec, tau=spec.tau + 0.5 * tau_dot * dt)
        half = step_rk4(state, 0.5 * dt)
        terms = balance_terms_reference(half.u, half.h, spec_h)
        rhs = sum(terms)
        if tau_dot != 0.0:
            y_spec = replace(spec_h, r=spec_h.r + 0.5 / spec_h.s)
            rhs += tau_dot * _curl_norm_sq(half, y_spec)
        deriv = (0.5 * _curl_norm_sq(step_rk4(state, dt), spec1) - n0) / dt
        scale = max(abs(deriv), sum(abs(x) for x in terms), TINY)
        defects.append(abs(deriv - rhs) / scale)
    orders = [
        float(np.log2(defects[i] / defects[i + 1]))
        for i in range(len(defects) - 1)
        if defects[i + 1] > 0
    ]
    return {"dt": list(dt_values), "defects": defects, "orders": orders}
