"""Fourier multipliers and differential/integral operators.

Implements the diagonal multipliers used by the Gevrey machinery (the l1-symbol
operator with symbol |k|_1, the directional operators with symbols |k_m| and
sgn(k_m), and the exponential Gevrey weight), plus curl, Biot-Savart inversion,
pseudo-spectral advection and the cross-gradient term of the curl of the
induction nonlinearity.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    GridError,
    SpectralField,
    _dealias_in_place,
    _real_inverse,
    _tables,
    _transform_components,
    from_physical,
    to_physical,
)


class MultiplierError(ValueError):
    """Invalid multiplier parameters or weight overflow."""


@dataclass(frozen=True)
class MultiplierSpec:
    """Parameters of the weight |sym(k)|^r exp(tau |sym(k)|^(1/s)).

    m = 0 selects the |k|_1 symbol; m in {1, 2, 3} selects |k_m|.
    """

    m: int = 0
    r: float = 0.0
    tau: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if self.m not in (0, 1, 2, 3):
            raise MultiplierError(f"direction index m must be in 0..3, got {self.m}")
        if self.r < 0:
            raise MultiplierError(f"exponent r must be >= 0, got {self.r}")
        if self.tau < 0:
            raise MultiplierError(f"radius tau must be >= 0, got {self.tau}")
        if self.s < 1:
            raise MultiplierError(f"Gevrey index s must be >= 1, got {self.s}")


def _weights(sym: np.ndarray, grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """|sym|^r exp(tau |sym|^(1/s)) per entry of a float symbol array.

    sym is (n, n, n) or spans one axis with the others of length 1; either
    way its indices are mode indices, so an overflow names its mode.
    """
    w = np.zeros_like(sym)
    nz = sym > 0
    with np.errstate(over="ignore"):
        expo = spec.r * np.log(sym[nz]) + spec.tau * sym[nz] ** (1.0 / spec.s)
        w[nz] = np.exp(expo)
    if not np.all(np.isfinite(w)):
        bad = np.argwhere(~np.isfinite(w))[0]
        k = grid.modes
        kbad = (int(k[bad[0]]), int(k[bad[1]]), int(k[bad[2]]))
        raise MultiplierError(
            f"Gevrey weight overflow at mode k={kbad} "
            f"(r={spec.r}, tau={spec.tau}, s={spec.s})"
        )
    if spec.r == 0:
        w[~nz] = 1.0
    return w


def _axis_weights(grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """Weight of a directional spec (m in 1..3) as a function of k_m alone.

    Shape (n, 1, 1), (1, n, 1) or (1, 1, n): it broadcasts along axis m.
    """
    km = grid.wavevectors()[spec.m - 1]
    return _weights(np.abs(km).astype(np.float64), grid, spec)


def multiplier_weights(grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """Per-mode weight array |sym|^r exp(tau |sym|^(1/s)), shape (n, n, n).

    Convention at sym(k) = 0: weight 1 when r = 0 (the mode passes through
    with exp(0) = 1), weight 0 when r > 0.  Overflow of the exponential is an
    error, not infinity; the exponent is accumulated in log form and
    exponentiated once.
    """
    if spec.m != 0:
        return np.broadcast_to(_axis_weights(grid, spec), (grid.n,) * 3).copy()
    k1, k2, k3 = grid.wavevectors()
    sym = (np.abs(k1) + np.abs(k2) + np.abs(k3)).astype(np.float64)
    return _weights(sym, grid, spec)


def lambda_apply(v: SpectralField, spec: MultiplierSpec) -> SpectralField:
    """Apply the diagonal weight |sym(k)|^r exp(tau |sym(k)|^(1/s))."""
    w = multiplier_weights(v.grid, spec)
    out = SpectralField(v.grid, v.coeffs * w)
    out.coeffs[:, 0, 0, 0] = 0.0
    return out


def curl(v: SpectralField) -> SpectralField:
    """Per-mode w_hat_k = i k x v_hat_k.

    i k_m is zero at the wavenumber n/2, as in `gradient_physical`, so the
    curl of a real field is real.
    """
    ik1, ik2, ik3 = _tables(v.grid.n).ik
    c = v.coeffs
    out = np.empty_like(c)
    out[0] = ik2 * c[2] - ik3 * c[1]
    out[1] = ik3 * c[0] - ik1 * c[2]
    out[2] = ik1 * c[1] - ik2 * c[0]
    return SpectralField(v.grid, out)


_DIV_TOL = 1e-10


def biot_savart(w: SpectralField) -> SpectralField:
    """Invert the curl: v_hat_k = i k x w_hat_k / |k|^2, by `curl`.

    Rejects inputs whose spectral divergence exceeds _DIV_TOL relative to
    the largest coefficient.
    """
    scale = w.max_amplitude()
    if scale > 0 and w.divergence_defect() > _DIV_TOL * max(scale, 1.0):
        raise ValueError(
            f"biot_savart input is not divergence-free "
            f"(defect {w.divergence_defect():.3e}, tolerance {_DIV_TOL:.1e})"
        )
    out = curl(w)
    out.coeffs /= _tables(w.grid.n).k2norm
    out.coeffs[:, 0, 0, 0] = 0.0
    return out


def gradient_physical(b: SpectralField) -> np.ndarray:
    """Collocation samples of the gradient tensor, shape (3, 3, n, n, n).

    Entry [m, c] is d b_c / d x_m.  b must be a real field: only the
    k_3 >= 0 half of its coefficients is read.
    """
    n = b.grid.n
    half = n // 2 + 1
    ik = _tables(n).ik
    out = np.empty((3, 3, n, n, n))

    def job(s, buf):
        # Component 3m + c of the tensor is i k_m times b_c: one multiply
        # per direction m over the components of s it holds.
        for m in range(3):
            lo, hi = max(s.start, 3 * m), min(s.stop, 3 * m + 3)
            if lo < hi:
                np.multiply(ik[m][..., :half],
                            b.coeffs[lo - 3 * m:hi - 3 * m, ..., :half],
                            out=buf[lo - s.start:hi - s.start])
        _real_inverse(buf, buf, out.reshape(9, n, n, n)[s])

    _transform_components(n, 9, job, scratch=True)
    return out


def advect(a: SpectralField, b: SpectralField) -> SpectralField:
    """Pseudo-spectral (a . grad) b with 2/3 dealiasing of the product.

    b is differentiated spectrally before the pointwise product.
    """
    if a.grid.n != b.grid.n:
        raise GridError("advect operands live on different grids")
    return advect_samples(a.grid, to_physical(a), gradient_physical(b))


def advect_samples(grid: Grid, a: np.ndarray,
                   grad_b: np.ndarray) -> SpectralField:
    """`advect` from the samples of a, shape (3, n, n, n), and the gradient
    tensor of b, as `to_physical` and `gradient_physical` return them."""
    prod = np.einsum("mxyz,mcxyz->cxyz", a, grad_b)
    return _dealias_in_place(from_physical(grid, prod))


def cross_gradient_samples(grid: Grid, gu: np.ndarray,
                           gh: np.ndarray) -> SpectralField:
    """E(u, h) - E(h, u), dealiased, from the gradient tensors of u and h.

    E is the gradient coupling in the curl of the induction nonlinearity:
    curl((a.grad)b) = (a.grad)(curl b) + E(a, b) with
    E(a, b)_i = eps_ijk d_j a_l d_l b_k.
    """
    # gradient_physical[m, c] is d_m of component c: d_j u_l is gu[j, l],
    # and d_l h_k is gh[:, k], contracted over its leading axis l.
    out = np.empty(gu.shape[1:])

    def pair(a, b, j, k):
        return np.einsum("lxyz,lxyz->xyz", a[j], b[:, k])

    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        out[i] = ((pair(gu, gh, j, k) - pair(gu, gh, k, j))
                  - (pair(gh, gu, j, k) - pair(gh, gu, k, j)))
    return _dealias_in_place(from_physical(grid, out))


def _mode_products(f: SpectralField, g: SpectralField) -> np.ndarray:
    """sum_c Re(f_hat_c(k) conj(g_hat_c(k))) per mode, shape (n, n, n).

    Read from the interleaved float64 views of the coefficients, so it builds
    no conjugate copy and no complex product field.
    """
    if f.grid.n != g.grid.n:
        raise GridError("inner product operands live on different grids")
    fparts = f.coeffs.view(np.float64)  # real and imaginary parts interleaved
    gparts = g.coeffs.view(np.float64)
    products = np.einsum("cxyz,cxyz->xyz", fparts, gparts)
    return products[..., 0::2] + products[..., 1::2]


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product <f, g> = (2pi)^3 sum_k Re(f_hat_k . conj(g_hat_k)).

    The real part is the whole value for Hermitian-symmetric fields.
    """
    return float((2.0 * np.pi) ** 3 * np.sum(_mode_products(f, g)))


def inner_weighted(f: SpectralField, g: SpectralField,
                   weights: np.ndarray) -> float:
    """<f, W g> for a real diagonal per-mode weight array W."""
    products = _mode_products(f, g)
    products *= weights
    return float((2.0 * np.pi) ** 3 * np.sum(products))
