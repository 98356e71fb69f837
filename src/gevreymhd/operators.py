"""Fourier multipliers and differential/integral operators.

Implements the diagonal multipliers used by the Gevrey machinery (the l1-symbol
operator with symbol |k|_1, the directional operators with symbols |k_m| and
sgn(k_m), and the exponential Gevrey weight), plus curl, Biot-Savart inversion
and pseudo-spectral advection.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    GridError,
    SpectralField,
    _dealias_in_place,
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
    """Per-mode w_hat_k = i k x v_hat_k."""
    k1, k2, k3 = _tables(v.grid.n).k
    c = v.coeffs
    out = np.empty_like(c)
    out[0] = 1j * (k2 * c[2] - k3 * c[1])
    out[1] = 1j * (k3 * c[0] - k1 * c[2])
    out[2] = 1j * (k1 * c[1] - k2 * c[0])
    return SpectralField(v.grid, out)


_DIV_TOL = 1e-10


def biot_savart(w: SpectralField) -> SpectralField:
    """Invert the curl: v_hat_k = i k x w_hat_k / |k|^2.

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

    Entry [m, c] is d b_c / d x_m.
    """
    n = b.grid.n
    ik = _tables(n).ik
    out = np.empty((3, 3, n, n, n))

    def job(i, buf):
        m, c = divmod(i, 3)
        np.multiply(ik[m], b.coeffs[c], out=buf)
        np.fft.ifftn(buf, out=buf)
        np.multiply(buf.real, n**3, out=out[m, c])

    _transform_components(n, 9, job, scratch=True)
    return out


def advect(a: SpectralField, b: SpectralField) -> SpectralField:
    """Pseudo-spectral (a . grad) b with 2/3 dealiasing of the product.

    b is differentiated spectrally before the pointwise product.
    """
    if a.grid.n != b.grid.n:
        raise GridError("advect operands live on different grids")
    aphys = to_physical(a)
    gradb = gradient_physical(b)
    prod = np.einsum("mxyz,mcxyz->cxyz", aphys, gradb)
    return _dealias_in_place(from_physical(a.grid, prod))


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
