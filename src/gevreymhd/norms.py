"""Sobolev and Gevrey-weighted norms, gradient sup-norms, radius fitting.

Displayed sums of squares are read as squared norms: every function here
returns the square root of the corresponding (2pi)^3-weighted coefficient sum.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import MultiplierSpec, gradient_physical, multiplier_weights
from .spectral import SpectralField


class RadiusFitError(ValueError):
    """Not enough populated spectral shells to fit a decay rate."""


class SubcriticalWarning(UserWarning):
    """r is at or below the threshold the radius theory assumes."""


@dataclass(frozen=True)
class GevreyParams:
    """Regularity triple (r, s, tau) for the weighted spaces."""

    r: float
    s: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError(f"r must be > 0, got {self.r}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")

    def warn_if_subcritical(self):
        """The radius theory assumes r > 5/2 + 3/(2s); warn, do not reject.

        `solver.run` calls this, so the warning is attributed to the caller
        of `run`, two frames up.
        """
        threshold = 2.5 + 1.5 / self.s
        if self.r <= threshold:
            warnings.warn(
                f"r={self.r} is below the regularity threshold "
                f"5/2 + 3/(2s) = {threshold:.4f} for s={self.s}",
                SubcriticalWarning,
                stacklevel=3,
            )


@dataclass
class NormRecord:
    """Norm snapshot of a vorticity/current pair."""

    hr: float
    x_norm: float
    y_norm: float
    grad_u_sup: float
    grad_h_sup: float
    x_omega: float
    x_current: float
    hr_omega: float
    hr_current: float

    def __post_init__(self):
        vals = [self.hr, self.x_norm, self.y_norm, self.grad_u_sup,
                self.grad_h_sup, self.x_omega, self.x_current,
                self.hr_omega, self.hr_current]
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise ValueError(f"norm record entries must be finite and >= 0: {vals}")
        # Directional weights satisfy |k_m|^(r+1/2s) >= |k_m|^r on every
        # active mode (k_m = 0 modes drop out for r > 0), so Y dominates X.
        if self.y_norm < self.x_norm * (1.0 - 1e-12):
            raise ValueError(
                f"y_norm {self.y_norm} < x_norm {self.x_norm}, "
                "which is impossible by construction"
            )


def sobolev_norm(v: SpectralField, r: float) -> float:
    """sqrt( (2pi)^3 sum_k (1+|k|^2)^r |v_hat_k|^2 )."""
    k1, k2, k3 = v.grid.wavevectors()
    weight = (1.0 + (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)) ** r
    total = np.sum(weight * np.abs(v.coeffs) ** 2)
    return float(np.sqrt((2.0 * np.pi) ** 3 * total))


def directional_norm_sq(v: SpectralField, r: float, tau: float,
                        s: float) -> float:
    """sum_{m=1..3} (2pi)^3 sum_k |k_m|^(2r) exp(2 tau |k_m|^(1/s)) |v_hat_k|^2."""
    total = 0.0
    for m in (1, 2, 3):
        w = multiplier_weights(v.grid, MultiplierSpec(m=m, r=r, tau=tau, s=s))
        total += np.sum(w**2 * np.abs(v.coeffs) ** 2)
    return float((2.0 * np.pi) ** 3 * total)


def gevrey_norm(v: SpectralField, params: GevreyParams,
                space: str = "X") -> float:
    """Weighted-space norm of a single field; space is "X" or "Y".

    Y raises the directional exponent by 1/(2s).
    """
    if space not in ("X", "Y"):
        raise ValueError(f"space must be 'X' or 'Y', got {space!r}")
    r = params.r if space == "X" else params.r + 0.5 / params.s
    return float(np.sqrt(directional_norm_sq(v, r, params.tau, params.s)))


def sup_gradient(v: SpectralField, refine: int = 1) -> float:
    """Collocation max of the max-abs entry of the spectral gradient tensor.

    refine > 1 evaluates on a zero-padded refine*n grid to reduce the
    under-resolution bias of plain collocation sampling.
    """
    if refine > 1:
        v = _zero_pad(v, refine)
    return float(np.max(np.abs(gradient_physical(v))))


def _zero_pad(v: SpectralField, factor: int) -> SpectralField:
    from .spectral import Grid

    n = v.grid.n
    big = Grid(factor * n)
    out = SpectralField.zeros(big)
    idx = v.grid.modes
    src = np.ix_((0, 1, 2), idx % n, idx % n, idx % n)
    dst = np.ix_((0, 1, 2), idx % big.n, idx % big.n, idx % big.n)
    out.coeffs[dst] = v.coeffs[src]
    return out


def state_norms(omega: SpectralField, current: SpectralField,
                params: GevreyParams, grad_u_sup: float,
                grad_h_sup: float) -> NormRecord:
    """Combined norm record for a vorticity/current pair.

    Pair norms combine in quadrature: ||pair||^2 = ||omega||^2 + ||J||^2.
    """
    hr_o = sobolev_norm(omega, params.r)
    hr_j = sobolev_norm(current, params.r)
    x_o = gevrey_norm(omega, params, "X")
    x_j = gevrey_norm(current, params, "X")
    y_o = gevrey_norm(omega, params, "Y")
    y_j = gevrey_norm(current, params, "Y")
    return NormRecord(
        hr=float(np.hypot(hr_o, hr_j)),
        x_norm=float(np.hypot(x_o, x_j)),
        y_norm=float(np.hypot(y_o, y_j)),
        grad_u_sup=grad_u_sup,
        grad_h_sup=grad_h_sup,
        x_omega=x_o,
        x_current=x_j,
        hr_omega=hr_o,
        hr_current=hr_j,
    )


def shell_maxima(v: SpectralField) -> np.ndarray:
    """Max coefficient magnitude per |k|_1 shell; entry [p] is shell |k|_1 = p."""
    k1, k2, k3 = v.grid.wavevectors()
    shells = np.broadcast_to(
        np.abs(k1) + np.abs(k2) + np.abs(k3),
        (v.grid.n,) * 3,
    ).ravel()
    amp = np.max(np.abs(v.coeffs), axis=0).ravel()
    nshell = int(shells.max()) + 1
    out = np.zeros(nshell)
    np.maximum.at(out, shells, amp)
    return out


def fit_radius(v: SpectralField, s: float = 1.0,
               noise_floor: float = 1e-14) -> float:
    """Least-squares decay rate of log shell maxima against -|k|_1^(1/s).

    Returns the fitted tau clamped at 0.  Shells at or below the noise floor
    are excluded; at least 4 usable shells (|k|_1 >= 1) are required.
    """
    maxima = shell_maxima(v)
    ks = np.arange(len(maxima))
    usable = (ks >= 1) & (maxima > noise_floor)
    if np.count_nonzero(usable) < 4:
        raise RadiusFitError(
            f"only {np.count_nonzero(usable)} usable shells, need >= 4"
        )
    xs = -(ks[usable].astype(np.float64) ** (1.0 / s))
    ys = np.log(maxima[usable])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(max(slope, 0.0))
