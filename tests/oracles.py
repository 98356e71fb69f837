"""Independent reference implementations used to cross-check the package.

Most of this deliberately avoids the package's FFT/vectorized code paths:
plain python loops over explicit mode dictionaries, quadrature sums over
collocation samples, norm weights built as full (n, n, n) arrays, and the
whole-history radius pipeline (cumulative I(t), the Gronwall majorant M(t)
and the Bernoulli closed form) that RadiusTracker computes one sample at a
time.  rk4_chain is the one driver here: it steps the package's one-interval
radius kernel across a sampled history.  The last three functions are
test-side compositions of package kernels that the package itself never
calls: the curl tendency of a primitive state, the gradient-coupling term
that closes the current identity, and the brute-force trilinear form.
"""

import numpy as np

from gevreymhd.operators import curl, gradient_physical
from gevreymhd.radius import _rk4_interval
from gevreymhd.solver import _curl_tendency
from gevreymhd.spectral import _dealias_in_place, from_physical
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
    """Tendency of the vorticity/current pair of a primitive state."""
    return _curl_tendency(state.u, state.h, curl(state.u), curl(state.h))


def cross_gradient_curl_term(u, h):
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
    e_uh -= e_hu
    return _dealias_in_place(from_physical(u.grid, e_uh))


def trilinear_bruteforce(a, b, c, m, r, tau, s, kmax):
    """Direct triple-sum value of <a . grad b, Lam_m^{2r} e^{2 tau Lam_m^{1/s}} c>."""
    A = extract_band(a, kmax)
    B = extract_band(b, kmax)
    C = extract_band(c, kmax)
    P = pair_marginal(A, B, C, kmax, m)
    return weighted_sum(P, weight_tables(kmax, r, tau, s)["full"])
