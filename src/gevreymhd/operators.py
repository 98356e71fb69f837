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
    _transform_components,
    dealias,
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


def _symbol(grid: Grid, m: int) -> np.ndarray:
    k1, k2, k3 = grid.wavevectors()
    if m == 0:
        return (np.abs(k1) + np.abs(k2) + np.abs(k3)).astype(np.float64)
    return np.broadcast_to(
        np.abs((k1, k2, k3)[m - 1]).astype(np.float64),
        (grid.n, grid.n, grid.n),
    ).copy()


def multiplier_weights(grid: Grid, spec: MultiplierSpec) -> np.ndarray:
    """Per-mode weight array |sym|^r exp(tau |sym|^(1/s)), shape (n, n, n).

    Convention at sym(k) = 0: weight 1 when r = 0 (the mode passes through
    with exp(0) = 1), weight 0 when r > 0.  Overflow of the exponential is an
    error, not infinity; the exponent is accumulated in log form and
    exponentiated once.
    """
    sym = _symbol(grid, spec.m)
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


def lambda_apply(v: SpectralField, spec: MultiplierSpec) -> SpectralField:
    """Apply the diagonal weight |sym(k)|^r exp(tau |sym(k)|^(1/s))."""
    w = multiplier_weights(v.grid, spec)
    out = SpectralField(v.grid, v.coeffs * w)
    out.coeffs[:, 0, 0, 0] = 0.0
    return out


def hilbert_sign(v: SpectralField, m: int) -> SpectralField:
    """Multiply per mode by sgn(k_m); k_m = 0 modes map to zero."""
    if m not in (1, 2, 3):
        raise MultiplierError(f"direction index m must be in 1..3, got {m}")
    k = v.grid.wavevectors()[m - 1]
    return SpectralField(v.grid, v.coeffs * np.sign(k))


def curl(v: SpectralField) -> SpectralField:
    """Per-mode w_hat_k = i k x v_hat_k."""
    k1, k2, k3 = v.grid.wavevectors()
    c = v.coeffs
    out = np.empty_like(c)
    out[0] = 1j * (k2 * c[2] - k3 * c[1])
    out[1] = 1j * (k3 * c[0] - k1 * c[2])
    out[2] = 1j * (k1 * c[1] - k2 * c[0])
    return SpectralField(v.grid, out)


def biot_savart(w: SpectralField, div_tol: float = 1e-10) -> SpectralField:
    """Invert the curl: v_hat_k = i k x w_hat_k / |k|^2.

    Rejects inputs whose spectral divergence exceeds div_tol relative to the
    largest coefficient.
    """
    scale = w.max_amplitude()
    if scale > 0 and w.divergence_defect() > div_tol * max(scale, 1.0):
        raise ValueError(
            f"biot_savart input is not divergence-free "
            f"(defect {w.divergence_defect():.3e}, tolerance {div_tol:.1e})"
        )
    k1, k2, k3 = w.grid.wavevectors()
    k2norm = (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)
    k2norm[0, 0, 0] = 1.0
    c = w.coeffs
    out = np.empty_like(c)
    out[0] = 1j * (k2 * c[2] - k3 * c[1]) / k2norm
    out[1] = 1j * (k3 * c[0] - k1 * c[2]) / k2norm
    out[2] = 1j * (k1 * c[1] - k2 * c[0]) / k2norm
    out[:, 0, 0, 0] = 0.0
    return SpectralField(w.grid, out)


def gradient_physical(b: SpectralField) -> np.ndarray:
    """Collocation samples of the gradient tensor, shape (3, 3, n, n, n).

    Entry [m, c] is d b_c / d x_m.
    """
    n = b.grid.n
    ik = [1j * km for km in b.grid.wavevectors()]
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
    return dealias(from_physical(a.grid, prod))


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product <f, g> = (2pi)^3 sum_k f_hat_k . conj(g_hat_k).

    Real for Hermitian-symmetric fields; the real part is returned.
    """
    if f.grid.n != g.grid.n:
        raise GridError("inner product operands live on different grids")
    return float(
        (2.0 * np.pi) ** 3 * np.real(np.sum(f.coeffs * np.conj(g.coeffs)))
    )


def inner_weighted(f: SpectralField, g: SpectralField,
                   weights: np.ndarray) -> float:
    """<f, W g> for a real diagonal per-mode weight array W."""
    if f.grid.n != g.grid.n:
        raise GridError("inner product operands live on different grids")
    return float(
        (2.0 * np.pi) ** 3
        * np.real(np.sum(f.coeffs * np.conj(g.coeffs) * weights))
    )
