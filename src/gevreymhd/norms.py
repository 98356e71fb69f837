"""Sobolev and Gevrey-weighted norms, gradient sup-norms, radius fitting.

Displayed sums of squares are read as squared norms: every function here
returns the square root of the corresponding (2pi)^3-weighted coefficient sum.
"""

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import (
    MultiplierSpec,
    _axis_weights,
    _mode_products,
    gradient_physical,
)
from .spectral import Grid, SpectralField


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
        for name in ("r", "s", "tau"):
            # Every comparison below is false for NaN.
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
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
    """H^r, X and Y norms of a vorticity/current pair."""

    hr: float
    x_norm: float
    y_norm: float

    def __post_init__(self):
        vals = [self.hr, self.x_norm, self.y_norm]
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise ValueError(f"norm record entries must be finite and >= 0: {vals}")
        # Directional weights satisfy |k_m|^(r+1/2s) >= |k_m|^r on every
        # active mode (k_m = 0 modes drop out for r > 0), so Y dominates X.
        if self.y_norm < self.x_norm * (1.0 - 1e-12):
            raise ValueError(
                f"y_norm {self.y_norm} < x_norm {self.x_norm}, "
                "which is impossible by construction"
            )


@functools.lru_cache(maxsize=8)
def _sobolev_weight(n: int, r: float) -> np.ndarray:
    k1, k2, k3 = Grid(n).wavevectors()
    weight = (1.0 + (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)) ** r
    weight.flags.writeable = False
    return weight


def weights_overflow(n: int, params: GevreyParams) -> bool:
    """Whether the largest norm weight on an n-grid overflows float64.

    That is the Sobolev weight (1 + 3 (n/2)^2)^r at the grid's corner mode,
    or the squared directional weight of Y, ((n/2)^(r + 1/(2s))
    exp(tau (n/2)^(1/s)))^2, at |k_m| = n/2.  Either one infinite makes
    every norm record non-finite, as inf times a zero power is NaN.  Both
    are compared in log form, so nothing is allocated.
    """
    half = n / 2
    sobolev = params.r * math.log1p(3.0 * half * half)
    directional = 2.0 * ((params.r + 0.5 / params.s) * math.log(half)
                         + params.tau * half ** (1.0 / params.s))
    return max(sobolev, directional) > math.log(sys.float_info.max)


def _sobolev_sq(power: np.ndarray, r: float) -> float:
    return float((2.0 * np.pi) ** 3
                 * np.sum(_sobolev_weight(power.shape[0], r) * power))


def _marginal(power: np.ndarray) -> np.ndarray:
    """Sum of the three per-axis marginals: entry i sums modes with k_m = k[i]."""
    rows = power.sum(axis=2)
    return rows.sum(axis=1) + rows.sum(axis=0) + power.sum(axis=(0, 1))


def _directional_sq(marginal: np.ndarray, grid: Grid, r: float, tau: float,
                    s: float) -> float:
    # The three directional weights are one function of k_m on a cubic grid.
    w = _axis_weights(grid, MultiplierSpec(m=1, r=r, tau=tau, s=s)).ravel()
    return float((2.0 * np.pi) ** 3 * np.sum(w**2 * marginal))


def gradient_sups(g: np.ndarray) -> tuple:
    """Max-abs entry and collocation max of |curl| of a gradient tensor.

    g is `gradient_physical`'s output, entry [m, c] = d_m v_c; the curl is
    its antisymmetric part.
    """
    rot = np.stack((g[1, 2] - g[2, 1], g[2, 0] - g[0, 2], g[0, 1] - g[1, 0]))
    # max |g| without an |g| array; negation is exact, so the value is too.
    grad_sup = max(float(g.max()), -float(g.min()))
    return grad_sup, float(np.max(np.linalg.norm(rot, axis=0)))


def sup_gradient(v: SpectralField) -> tuple:
    """Max-abs gradient entry and collocation max of |curl v|, one transform."""
    return gradient_sups(gradient_physical(v))


def field_norms(v: SpectralField, params: GevreyParams) -> tuple:
    """H^r, X and Y norms of one field from one sum of its |v_hat_k|^2.

    X sums (2pi)^3 |k_m|^(2r) exp(2 tau |k_m|^(1/s)) |v_hat_k|^2 over m and
    k; Y raises the directional exponent r by 1/(2s).
    """
    power = _mode_products(v, v)
    marginal = _marginal(power)
    squares = (
        _sobolev_sq(power, params.r),
        _directional_sq(marginal, v.grid, params.r, params.tau, params.s),
        _directional_sq(marginal, v.grid, params.r + 0.5 / params.s,
                        params.tau, params.s),
    )
    return tuple(float(np.sqrt(sq)) for sq in squares)


def state_norms(omega: SpectralField, current: SpectralField,
                params: GevreyParams) -> NormRecord:
    """Combined norm record for a vorticity/current pair.

    Pair norms combine in quadrature: ||pair||^2 = ||omega||^2 + ||J||^2.
    """
    pairs = zip(field_norms(omega, params), field_norms(current, params))
    return NormRecord(*(float(np.hypot(o, j)) for o, j in pairs))


def mode_amplitude(*fields: SpectralField) -> np.ndarray:
    """Largest component magnitude over the fields per mode, shape (n, n, n).

    The shell maxima, the shell spectrum and the radius fit all read it.
    """
    return np.max([np.abs(v.coeffs).max(axis=0) for v in fields], axis=0)


def _per_shell(ufunc, values: np.ndarray) -> np.ndarray:
    """Reduce an (n, n, n) array into a zero-started entry per |k|_1 shell."""
    k1, k2, k3 = Grid(values.shape[0]).wavevectors()
    shells = (np.abs(k1) + np.abs(k2) + np.abs(k3)).ravel()
    out = np.zeros(int(shells.max()) + 1)
    ufunc.at(out, shells, values.ravel())
    return out


def shell_maxima(amp: np.ndarray) -> np.ndarray:
    """Max mode amplitude per |k|_1 shell; entry [p] is shell |k|_1 = p."""
    return _per_shell(np.maximum, amp)


def shell_spectrum(amp: np.ndarray) -> tuple:
    """Spectrum columns per |k|_1 shell: k1_abs_max, amplitude_max, amplitude_l2.

    k1_abs_max is the largest |k_1| of a mode with nonzero amplitude.
    """
    absk1 = np.abs(Grid(amp.shape[0]).wavevectors()[0])
    # Float values: ufunc.at takes its fast path only without a cast.
    return (_per_shell(np.maximum, np.where(amp > 0, absk1, 0.0)),
            shell_maxima(amp),
            np.sqrt(_per_shell(np.add, amp**2)))


def fit_radius(amp: np.ndarray, s: float = 1.0,
               noise_floor: float = 1e-14) -> float:
    """Least-squares decay rate of log shell maxima against -|k|_1^(1/s).

    Returns the fitted tau clamped at 0.  Shells at or below the noise floor
    are excluded; at least 4 usable shells (|k|_1 >= 1) are required.
    """
    maxima = shell_maxima(amp)
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
