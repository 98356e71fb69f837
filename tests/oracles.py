"""Independent reference implementations used to cross-check the package.

Most of this deliberately avoids the package's FFT/vectorized code paths:
numpy's full forward transform and the 2/3-rule mask as whole arrays (the
package transforms and keeps only the band), plain python loops over
explicit mode dictionaries, quadrature sums over collocation samples, norm
weights built as full (n, n, n) arrays, and the
whole-history radius pipeline (cumulative I(t), the Gronwall majorant M(t),
the explicit lower bound and the Bernoulli closed form) that `solver.run`
and RadiusTracker compute one sample at a time.  rk4_chain is the one
driver here: it steps the package's one-interval radius kernel across a
sampled history.  The last nine functions are test-side compositions of
package kernels that the package itself never calls: the primitive
tendency written into full fields, the vorticity/current
tendency of a primitive state as the rows of `lab.CURL_TERMS` through
`operators.advect`, the weighted trilinear form through `advect`
(transform_trilinear), the cross gradient term E(u, h) - E(h, u) from the
two gradient tensors of u and h (cross_gradient_curl_term), the
brute-force trilinear form, a run loop that transforms every state once
per use, the balance terms as one transform_trilinear per row, the
energy balance check with a half step and a full step per dt, and the
lemma constants with an advect per row and a weight array per m.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np

from gevreymhd import solver
from gevreymhd.lab import (
    _BALANCE_GROUP,
    CURL_TERMS,
    TINY,
    _curl_norm_sq,
    _lemma_rhs,
    weighted_inner,
)
from gevreymhd.norms import GevreyParams, sup_gradient
from gevreymhd.operators import (
    advect,
    biot_savart,
    cross_gradient_samples,
    curl,
    gradient_physical,
)
from gevreymhd.radius import _rk4_interval
from gevreymhd.solver import (
    RunResult,
    StepError,
    _sample_diagnostics,
    cfl_timestep,
    step_rk4,
)
from gevreymhd.spectral import SpectralField, _from_band
from gevreymhd.triads import (
    extract_band,
    pair_marginal,
    weight_tables,
    weighted_sum,
)


def from_physical(grid, samples):
    """Forward transform of the (3, n, n, n) samples of one field at every
    mode: numpy's fftn over the mode axes, / n^3, k = 0 pinned to 0."""
    coeffs = np.fft.fftn(samples, axes=(1, 2, 3)) / grid.n**3
    coeffs[:, 0, 0, 0] = 0.0
    return SpectralField(grid, coeffs)


def dealias(v):
    """Zero every mode with any |k_i| > n/3 (2/3 rule) by the full mask."""
    return SpectralField(v.grid, v.coeffs * v.grid.band_mask(v.grid.n / 3.0))


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


def lower_bound(times, integral, C: float, tau0: float, hr0: float,
                x0: float) -> list:
    """exp(-C I(t)) / (1/tau0 + C0 t + C1 t^2 / 2) at each sample.

    t counts from the first sample, whose norms give C0 = C (hr0 + x0) and
    C1 = C^2 (1 + tau0) hr0^2.
    """
    C0 = C * (hr0 + x0)
    C1 = C * C * (1.0 + tau0) * hr0**2
    out = []
    for t, value in zip(times, integral):
        t = t - times[0]
        denom = 1.0 / tau0 + C0 * t + 0.5 * C1 * t * t
        out.append(float(np.exp(-C * value) / denom))
    return out


def rk4_chain(times, a_series, b_series, tau0: float) -> np.ndarray:
    """tau at every sample: one _rk4_interval call per sample interval."""
    taus = [tau0]
    for i in range(len(times) - 1):
        taus.append(_rk4_interval(taus[-1], times[i], times[i + 1],
                                  a_series[i], a_series[i + 1],
                                  b_series[i], b_series[i + 1]))
    return np.array(taus)


PrimitiveTendency = namedtuple("PrimitiveTendency", "du dh")


def primitive_tendency(state):
    """rhs_primitive(state)'s band written into full fields du and dh,
    +0.0 at every mode outside the band."""
    band, n = solver.rhs_primitive(state).band, state.grid.n
    return PrimitiveTendency(*(SpectralField(state.grid, _from_band(c, n))
                               for c in (band[:3], band[3:])))


# du and dh name the tendencies of omega and current, as they do for u, h.
CurlTendency = namedtuple("CurlTendency", "du dh")


def rhs_curl(state):
    """Tendency of the vorticity/current pair of a primitive state.

    The rows of CURL_TERMS summed per target, each product by advect.
    """
    fields = {"u": state.u, "h": state.h,
              "omega": curl(state.u), "current": curl(state.h)}
    tend = {"omega": 0.0, "current": 0.0}
    for a, b, c, sign, _ in CURL_TERMS:
        tend[c] = tend[c] + sign * advect(fields[a], fields[b]).coeffs
    return CurlTendency(*(SpectralField(state.grid, tend[c])
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


def estimate_constant_reference(lemma, samples, spec):
    """lab.estimate_constant with an advect per row, a sup_gradient each for
    u and h, and a weighted_inner, which builds its weights, per row and m:
    42 inverse component transforms per sample."""
    params = GevreyParams(r=spec.r, s=spec.s, tau=spec.tau)
    rows = [row for row in CURL_TERMS if row[4] == lemma]
    sup, used = 0.0, 0
    for omega, current in samples:
        fields = {"u": biot_savart(omega), "h": biot_savart(current),
                  "omega": omega, "current": current}
        terms = [(sign, advect(fields[a], fields[b]), fields[c])
                 for a, b, c, sign, _ in rows]
        rhs = _lemma_rhs(lemma, omega, current, params,
                         sup_gradient(fields["u"])[0],
                         sup_gradient(fields["h"])[0])
        for m in (1, 2, 3):
            t1, t2 = (sign * weighted_inner(prod, c, replace(spec, m=m))
                      for sign, prod, c in terms)
            lhs = abs(t1 + t2) if lemma == "3.21" else abs(t1) + abs(t2)
            if lhs == 0.0 and rhs == 0.0:
                continue
            sup = max(sup, lhs / rhs)
            used += 1
    assert used
    return float(sup)
