"""Brute-force triad summation engine.

Quadratic nonlinearities couple Fourier modes through triples j + k + l = 0.
Every trilinear form checked by the verification lab has the shape

    i (2pi)^3 sum_{j+k+l=0} (a_j . k) (b_k . c_l) w(j_m, k_m, l_m)

where the scalar weight w depends only on the m-th components of the triad.
The hot O(M^2) double loop over mode pairs is therefore factored into a
pairwise marginal P[j_m, k_m] computed once per field triple, after which
every weighted sum is a cheap contraction of P against a small weight table.

The marginal is a numpy loop over the nonzero modes j of the first field,
each contracting one shifted block of the third field against the second;
its reduction order is fixed, so residuals are bit-reproducible.
"""

import numpy as np

from .spectral import SpectralField

MAX_BRUTE_KMAX = 6


class BandError(ValueError):
    """Field content outside the requested brute-force band."""


def extract_band(v: SpectralField, kmax: int, strict: bool = True) -> np.ndarray:
    """Dense (3, 2K+1, 2K+1, 2K+1) coefficient cube over |k_i| <= kmax.

    Index [c, k1+K, k2+K, k3+K] holds component c at wavevector k.  With
    strict=True, content outside the band raises.
    """
    if kmax > MAX_BRUTE_KMAX:
        nmodes = (2 * kmax + 1) ** 3
        raise BandError(
            f"kmax={kmax} exceeds the brute-force cap {MAX_BRUTE_KMAX} "
            f"(~{nmodes**2:.2e} mode pairs)"
        )
    n = v.grid.n
    modes = v.grid.modes
    inside = np.abs(modes) <= kmax
    if strict:
        outside = ~(
            inside[:, None, None] & inside[None, :, None] & inside[None, None, :]
        )
        leak = float(np.max(np.abs(v.coeffs[:, outside]))) if outside.any() else 0.0
        if leak > 1e-13 * max(v.max_amplitude(), 1.0):
            raise BandError(
                f"field has content outside |k_i| <= {kmax} (max {leak:.3e})"
            )
    K = kmax
    cube = np.zeros((3, 2 * K + 1, 2 * K + 1, 2 * K + 1), dtype=np.complex128)
    idx = np.arange(-K, K + 1)
    pos = idx % n
    cube[:] = v.coeffs[np.ix_((0, 1, 2), pos, pos, pos)]
    return cube


def pair_marginal(A: np.ndarray, B: np.ndarray, C: np.ndarray, K: int,
                  m: int) -> np.ndarray:
    """P[j_m+K, k_m+K] = sum over pairs of (a_j . k)(b_k . c_{-j-k})."""
    if m not in (1, 2, 3):
        raise ValueError(f"direction index m must be in 1..3, got {m}")
    size = 2 * K + 1
    P = np.zeros((size, size), dtype=np.complex128)
    # Cbig[u + 2K] = c_{-u} for |u| <= K, else 0; then c_{-j-k} is the
    # contiguous block Cbig[j+K : j+3K+1] along each axis.
    big = 4 * K + 1
    Cbig = np.zeros((3, big, big, big), dtype=np.complex128)
    Cbig[:, K:3 * K + 1, K:3 * K + 1, K:3 * K + 1] = C[:, ::-1, ::-1, ::-1]
    kline = np.arange(-K, K + 1, dtype=np.float64)
    kv = (
        kline[:, None, None],
        kline[None, :, None],
        kline[None, None, :],
    )
    for j1 in range(-K, K + 1):
        for j2 in range(-K, K + 1):
            for j3 in range(-K, K + 1):
                aj = A[:, j1 + K, j2 + K, j3 + K]
                if aj[0] == 0 and aj[1] == 0 and aj[2] == 0:
                    continue
                ajk = aj[0] * kv[0] + aj[1] * kv[1] + aj[2] * kv[2]
                cl = Cbig[:, j1 + K:j1 + 3 * K + 1,
                          j2 + K:j2 + 3 * K + 1,
                          j3 + K:j3 + 3 * K + 1]
                bc = B[0] * cl[0] + B[1] * cl[1] + B[2] * cl[2]
                g = ajk * bc
                jm = (j1, j2, j3)[m - 1]
                axes = tuple(ax for ax in range(3) if ax != m - 1)
                P[jm + K, :] += g.sum(axis=axes)
    return P


# ---------------------------------------------------------------------------
# Weight tables.  All are (2K+1, 2K+1) arrays over (j_m, k_m) with
# l_m = -j_m - k_m; |x|^rho uses the convention 0^0 = 1, 0^rho = 0 for rho > 0.

def _pw(x: np.ndarray, rho: float) -> np.ndarray:
    ax = np.abs(x).astype(np.float64)
    if rho == 0.0:
        return np.ones_like(ax)
    out = np.zeros_like(ax)
    nz = ax > 0
    out[nz] = ax[nz] ** rho
    return out


def weight_tables(K: int, r: float, tau: float, s: float) -> dict:
    """All triad weight tables for the decomposition checks.

    Keys: full, cancel, wfirst, t1, t2, tdiff, r1, r2, r3, s1, s2, s3.
    """
    idx = np.arange(-K, K + 1, dtype=np.float64)
    jm = idx[:, None]
    km = idx[None, :]
    lm = -jm - km
    half = 0.5 / s
    J = np.abs(jm) ** (1.0 / s)
    Kk = np.abs(km) ** (1.0 / s)
    L = np.abs(lm) ** (1.0 / s)
    eJ = np.exp(tau * J)
    eK = np.exp(tau * Kk)
    eL = np.exp(tau * L)
    lr = _pw(lm, r)
    kr = _pw(km, r)
    jr = _pw(jm, r)
    lp = _pw(lm, r + half)
    kp = _pw(km, r + half)
    lmn = _pw(lm, r - half)
    kmn = _pw(km, r - half)
    tables = {
        "full": _pw(lm, 2.0 * r) * eL * eL,
        "cancel": kr * eK * lr * eL,
        "wfirst": jr * eJ * lr * eL,
        "t1": (lr - kr) * eK * lr * eL,
        "t2": lr * (eL - eK) * lr * eL,
        "tdiff": (lr * eL - kr * eK) * lr * eL,
        "r1": lmn * (np.exp(tau * (L - Kk)) - 1.0 - tau * (L - Kk)) * eK * lp * eL,
        "r2": tau * (lp - kp) * eK * lp * eL,
        "r3": tau * Kk * (lmn - kmn) * eK * lp * eL,
        "s1": (lr - jr) * (eL - eK) * lr * eL,
        "s2": (lr - kr - jr) * eK * lr * eL,
        "s3": jr * (eL - eJ) * lr * eL,
    }
    return tables


def weighted_sum(P: np.ndarray, table: np.ndarray) -> complex:
    """i (2pi)^3 sum P[j_m, k_m] w(j_m, k_m)."""
    return complex(1j * (2.0 * np.pi) ** 3 * np.sum(P * table))


def trilinear_bruteforce(a: SpectralField, b: SpectralField,
                         c: SpectralField, m: int, r: float, tau: float,
                         s: float, kmax: int) -> complex:
    """Direct triple-sum value of <a . grad b, Lam_m^{2r} e^{2 tau Lam_m^{1/s}} c>."""
    A = extract_band(a, kmax)
    B = extract_band(b, kmax)
    C = extract_band(c, kmax)
    P = pair_marginal(A, B, C, kmax, m)
    return weighted_sum(P, weight_tables(kmax, r, tau, s)["full"])
