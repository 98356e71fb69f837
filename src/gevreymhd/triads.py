"""Brute-force triad summation engine.

Quadratic nonlinearities couple Fourier modes through triples j + k + l = 0.
Every trilinear form checked by the verification lab has the shape

    i (2pi)^3 sum_{j+k+l=0} (a_j . k) (b_k . c_l) w(j_m, k_m, l_m)

where the scalar weight w depends only on the m-th components of the triad.
The hot O(M^2) double loop over mode pairs is therefore factored into a
pairwise marginal P[j_m, k_m] computed once per field triple, after which
every weighted sum is a cheap contraction of P against a small weight table.

The marginal stays a direct sum over the triads of the band, with no FFT, so
its comparison with the transform path stays independent.  It is computed
as K+1 slab contractions, one per l_m >= 0: the third field, gathered at
l = -j-k over the perpendicular plane, is contracted against the rows of
the first whose j_m has a partner k_m = -l_m - j_m in the band, in one
matrix product, and then against k (x) b for those pairs.  The l_m < 0
half follows from P[-j_m, -k_m] = -conj P[j_m, k_m], which holds when the
three fields are real, so every cube must be Hermitian,
X[c, -k] = conj X[c, k], to roundoff; `pair_marginal` rejects one that is
not.  The reduction order is fixed by the code and the BLAS build, so
residuals are reproducible for a given numpy/BLAS build and thread count.
"""

import numpy as np

from .norms import mode_amplitude
from .spectral import SpectralField

MAX_BRUTE_KMAX = 6
HERMITIAN_RTOL = 1e-12  # a cube's defect, relative to its largest entry


class BandError(ValueError):
    """Field content outside the requested brute-force band."""


def extract_band(v: SpectralField, kmax: int) -> np.ndarray:
    """Dense (3, 2K+1, 2K+1, 2K+1) coefficient cube over |k_i| <= kmax.

    Index [c, k1+K, k2+K, k3+K] holds component c at wavevector k.  Content
    outside the band raises, and so does a band with 2 kmax >= n, whose
    cube would hold some modes twice.  The leak is the largest |v_hat| left
    once the band's entries of the |v_hat| array are zeroed.
    """
    n = v.grid.n
    if kmax > MAX_BRUTE_KMAX:
        nmodes = (2 * kmax + 1) ** 3
        raise BandError(
            f"kmax={kmax} exceeds the brute-force cap {MAX_BRUTE_KMAX} "
            f"(~{nmodes**2:.2e} mode pairs)"
        )
    if 2 * kmax >= n:
        raise BandError(f"band |k_i| <= {kmax} is wider than the n={n} grid")
    amp = mode_amplitude(v)
    largest = float(np.max(amp))
    pos = np.arange(-kmax, kmax + 1) % n
    amp[np.ix_(pos, pos, pos)] = 0.0
    leak = float(np.max(amp))
    if leak > 1e-13 * max(largest, 1.0):
        raise BandError(
            f"field has content outside |k_i| <= {kmax} (max {leak:.3e})"
        )
    # Advanced indexing copies, so the cube shares no memory with v.
    return v.coeffs[np.ix_((0, 1, 2), pos, pos, pos)]


def _require_real(X: np.ndarray, name: str) -> None:
    """Raise unless the band cube X is Hermitian to HERMITIAN_RTOL."""
    defect = float(np.max(np.abs(X[:, ::-1, ::-1, ::-1] - np.conj(X))))
    if defect > HERMITIAN_RTOL * float(np.max(np.abs(X))):
        raise ValueError(
            f"pair_marginal needs real fields: cube {name} has Hermitian "
            f"defect {defect:.3e} (tolerance {HERMITIAN_RTOL:.0e} of its "
            f"largest entry)"
        )


def pair_marginal(A: np.ndarray, B: np.ndarray, C: np.ndarray, K: int,
                  m: int) -> np.ndarray:
    """P[j_m+K, k_m+K] = sum over pairs of (a_j . k)(b_k . c_{-j-k}).

    A, B and C are the band cubes of real fields; a cube that is not
    Hermitian to roundoff raises ValueError.
    """
    if m not in (1, 2, 3):
        raise ValueError(f"direction index m must be in 1..3, got {m}")
    for name, X in zip("ABC", (A, B, C)):
        _require_real(X, name)
    size = 2 * K + 1
    plane = size * size
    # Axis m first, the perpendicular plane flattened: X[c, i_m, p].
    a, b, c = (np.moveaxis(X, m, 1).reshape(3, size, plane) for X in (A, B, C))
    kline = np.arange(-K, K + 1)
    q1 = np.repeat(kline, size)
    q2 = np.tile(kline, size)
    # Flat index of component e at -(p + q) in a zero-padded (4K+1)^2 plane
    # centred on 2K, components innermost, so that
    # cpad[l_m + K][gather[p, 3q + e]] = c^e_{(l_m, -(p+q))}, or 0 off the
    # band: one take per slab gathers its whole block.
    wide = 4 * K + 1
    gather = ((2 * K - q1[:, None] - q1[None, :]) * wide
              + (2 * K - q2[:, None] - q2[None, :]))
    gather = (3 * gather[:, :, None] + np.arange(3)).reshape(plane, 3 * plane)
    cpad = np.zeros((size, wide, wide, 3), dtype=np.complex128)
    cpad[:, K:3 * K + 1, K:3 * K + 1] = (
        c.transpose(1, 2, 0).reshape(size, size, size, 3))
    cpad = cpad.reshape(size, wide * wide * 3)
    # kb[k_m, d, q, e] = k_d b^e_k with k = (k_m, q).
    kvec = np.empty((3, size, plane))
    kvec[m - 1] = kline[:, None]
    perp = [d for d in range(3) if d != m - 1]
    kvec[perp[0]] = q1
    kvec[perp[1]] = q2
    kb = (kvec.transpose(1, 0, 2)[:, :, :, None]
          * b.transpose(1, 2, 0)[:, None, :, :]).reshape(size, 9 * plane)
    amat = a.transpose(1, 0, 2).reshape(size * 3, plane)
    P = np.zeros((size, size), dtype=np.complex128)
    for lm in range(K + 1):
        # The pairs j_m + k_m = -l_m in the band have j_m = -K .. K - l_m,
        # the first 2K+1-l_m rows of a.
        jm = np.arange(-K, K - lm + 1)
        km = -lm - jm
        # t[j_m, d, q, e] = sum_p a^d_{(j_m, p)} c^e_{(l_m, -(p+q))}
        block = cpad[lm + K].take(gather)
        t = (amat[:3 * len(jm)] @ block).reshape(len(jm), 9 * plane)
        P[jm + K, km + K] = np.einsum("ix,ix->i", t, kb[km + K])
    # The pairs with l_m < 0, mirrored from those with -l_m.
    lsum = kline[:, None] + kline[None, :]  # -l_m
    mirror = (lsum > 0) & (lsum <= K)
    P[mirror] = -np.conj(P[::-1, ::-1][mirror])
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

