"""Torus discretization and Fourier-space field containers.

Fields on T^3 = [0, 2pi)^3 are stored as full complex coefficient arrays in
numpy FFT layout, one array of shape (3, n, n, n) per vector field.  The
coefficient convention is the Fourier-series one: a single coefficient
v_hat_k = c (together with its conjugate partner at -k) represents the
physical field c * exp(i k.x) + conj(c) * exp(-i k.x).  Real fields are kept
real by enforcing Hermitian symmetry explicitly rather than using a
half-spectrum layout; the signed-k index arithmetic needed by the triad
verification code is then trivial.

The 3-D transforms (`to_physical`, `from_physical` and
`operators.gradient_physical`) make one numpy FFT call per field component,
in place in arrays the caller allocated.  On grids with n >= 64 the
components are split into one contiguous group per CPU in the process's
affinity mask; the calling thread runs one group and a module-level thread
pool, created on first use, runs the others.  numpy's transforms release the
interpreter lock, so the groups run in parallel.  Smaller grids run every
component on the calling thread, as a second thread gained little or lost
there.  A transform over the component axis computes each component with
the same arithmetic as a call on that component alone, so the outputs are
bit-identical to it, and to each other for any thread count.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid size or a grid mismatch between fields."""


@dataclass(frozen=True)
class Grid:
    """Uniform n^3 collocation grid on [0, 2pi)^3.

    n must be even and at least 8.  Mode indices run over the truncation
    range [-n/2+1, n/2] in each direction, in numpy FFT ordering.
    """

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise GridError(f"grid size must be even and >= 8, got n={self.n}")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def modes(self) -> np.ndarray:
        """Signed integer mode indices in FFT order, shape (n,)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    def wavevectors(self):
        """Broadcastable (k1, k2, k3) integer arrays in FFT order."""
        k = self.modes
        return (
            k[:, None, None],
            k[None, :, None],
            k[None, None, :],
        )

    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping modes with every |k_i| <= n/3 (2/3 rule)."""
        k = self.modes
        keep1 = np.abs(k) <= self.n / 3.0
        return keep1[:, None, None] & keep1[None, :, None] & keep1[None, None, :]


def _reflect(coeffs: np.ndarray) -> np.ndarray:
    """Return the array sampled at -k, i.e. A[-i mod n] along the 3 mode axes."""
    out = coeffs
    for ax in (-3, -2, -1):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


@dataclass
class SpectralField:
    """Truncated Fourier coefficients of a mean-zero 3-vector field on T^3.

    coeffs has shape (3, n, n, n), complex128, numpy FFT mode ordering.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (3, n, n, n):
            raise GridError(
                f"coefficient array shape {self.coeffs.shape} does not match grid n={n}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((3, grid.n, grid.n, grid.n), dtype=np.complex128))

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def max_amplitude(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def hermitian_defect(self) -> float:
        """max |v_hat(-k) - conj(v_hat(k))| over all modes and components."""
        return float(np.max(np.abs(_reflect(self.coeffs) - np.conj(self.coeffs))))

    def divergence_defect(self) -> float:
        """max_k |k . v_hat_k|."""
        k1, k2, k3 = self.grid.wavevectors()
        c = self.coeffs
        return float(np.max(np.abs(k1 * c[0] + k2 * c[1] + k3 * c[2])))


def symmetrize(v: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric (real-field) subspace, pin k=0 to 0."""
    c = 0.5 * (v.coeffs + np.conj(_reflect(v.coeffs)))
    c[:, 0, 0, 0] = 0.0
    return SpectralField(v.grid, c)


# Smallest grid whose components are transformed on the thread pool.
_POOL_MIN_N = 64
_pool = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here: runs on small grids never pay for it.
            from concurrent.futures import ThreadPoolExecutor

            # The calling thread runs one group itself.
            _pool = ThreadPoolExecutor(max(_cpu_count() - 1, 1),
                                       thread_name_prefix="gevreymhd-fft")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _transform_components(n: int, count: int, job, scratch: bool) -> None:
    """Call job(i, buf) for every component i in range(count) of an n^3 grid.

    buf is an (n, n, n) complex scratch array owned by the component's group
    (None without `scratch`); the caller allocates it, so worker threads
    allocate nothing large, whose freed blocks glibc's per-thread arenas
    would keep.  Groups are contiguous; the calling thread runs the first,
    and an exception raised in any group reaches the caller.
    """
    groups = min(count, _cpu_count()) if n >= _POOL_MIN_N else 1
    bounds = [count * g // groups for g in range(groups + 1)]
    if scratch:
        bufs = np.empty((groups, n, n, n), dtype=np.complex128)
    else:
        bufs = [None] * groups
    # numpy's error state is per thread; the workers take the caller's.
    err = np.geterr()

    def run_group(g):
        with np.errstate(**err):
            for i in range(bounds[g], bounds[g + 1]):
                job(i, bufs[g])

    futures = [_executor().submit(run_group, g) for g in range(1, groups)]
    run_group(0)
    for future in futures:
        future.result()


def to_physical(v: SpectralField) -> np.ndarray:
    """Inverse transform to collocation samples, shape (3, n, n, n), real."""
    n = v.grid.n
    out = np.empty((3, n, n, n))

    def job(i, buf):
        np.fft.ifftn(v.coeffs[i], out=buf)
        np.multiply(buf.real, n**3, out=out[i])

    _transform_components(n, 3, job, scratch=True)
    return out


def from_physical(grid: Grid, samples: np.ndarray) -> SpectralField:
    """Forward transform of collocation samples; pins the mean mode to zero."""
    samples = np.asarray(samples, dtype=np.float64)
    n = grid.n
    if samples.shape != (3, n, n, n):
        raise GridError(
            f"sample array shape {samples.shape} does not match grid n={n}"
        )
    coeffs = samples.astype(np.complex128)

    def job(i, _):
        np.fft.fftn(coeffs[i], out=coeffs[i])
        np.divide(coeffs[i], n**3, out=coeffs[i])

    _transform_components(n, 3, job, scratch=False)
    coeffs[:, 0, 0, 0] = 0.0
    return SpectralField(grid, coeffs)


def dealias(v: SpectralField) -> SpectralField:
    """Zero every mode with any |k_i| > n/3 (2/3 rule); idempotent."""
    mask = v.grid.dealias_mask()
    return SpectralField(v.grid, v.coeffs * mask)


def leray_project(v: SpectralField) -> SpectralField:
    """Per-mode projection v_hat_k -> v_hat_k - k (k.v_hat_k)/|k|^2.

    Annihilates gradient fields, fixes divergence-free fields, idempotent.
    """
    k1, k2, k3 = v.grid.wavevectors()
    k2norm = (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)
    k2norm[0, 0, 0] = 1.0  # k=0 coefficient is zero anyway
    c = v.coeffs
    kdotv = (k1 * c[0] + k2 * c[1] + k3 * c[2]) / k2norm
    out = np.empty_like(c)
    out[0] = c[0] - k1 * kdotv
    out[1] = c[1] - k2 * kdotv
    out[2] = c[2] - k3 * kdotv
    out[:, 0, 0, 0] = 0.0
    return SpectralField(v.grid, out)


@dataclass
class MHDState:
    """Velocity/magnetic pair (u, h) at time t, both divergence-free."""

    u: SpectralField
    h: SpectralField
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid.n != self.h.grid.n:
            raise GridError("u and h live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "MHDState":
        return MHDState(self.u.copy(), self.h.copy(), self.t)


def mode_field(grid: Grid, entries) -> SpectralField:
    """Build a field from (wavevector, coefficient-vector) pairs plus conjugates.

    Handy for single-mode tests: mode_field(g, [((1, 0, 0), (0, 0.5, 0))]) is
    cos(x1) e_2.  Self-conjugate modes (where k and -k coincide on the grid)
    receive the coefficient once.
    """
    v = SpectralField.zeros(grid)
    n = grid.n
    for k, vec in entries:
        idx = tuple(ki % n for ki in k)
        nidx = tuple((-ki) % n for ki in k)
        vec = np.asarray(vec, dtype=np.complex128)
        v.coeffs[(slice(None),) + idx] += vec
        if nidx != idx:
            v.coeffs[(slice(None),) + nidx] += np.conj(vec)
    v.coeffs[:, 0, 0, 0] = 0.0
    return v


def taylor_green_mhd(grid: Grid, amplitude: float = 1.0,
                     mag_amplitude: float = 1.0) -> MHDState:
    """Taylor-Green velocity with an insulating-type magnetic perturbation.

    u = A (sin x cos y cos z, -cos x sin y cos z, 0)
    h = B (cos x sin y sin z, sin x cos y sin z, -2 sin x sin y cos z)

    Both are exactly divergence-free and mean-zero.
    """
    x = np.arange(grid.n) * grid.spacing
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    usamp = np.stack([
        amplitude * np.sin(X) * np.cos(Y) * np.cos(Z),
        -amplitude * np.cos(X) * np.sin(Y) * np.cos(Z),
        np.zeros_like(X),
    ])
    hsamp = np.stack([
        mag_amplitude * np.cos(X) * np.sin(Y) * np.sin(Z),
        mag_amplitude * np.sin(X) * np.cos(Y) * np.sin(Z),
        -2.0 * mag_amplitude * np.sin(X) * np.sin(Y) * np.cos(Z),
    ])
    uf = symmetrize(from_physical(grid, usamp))
    hf = symmetrize(from_physical(grid, hsamp))
    return MHDState(uf, hf, 0.0)


def orszag_tang_3d(grid: Grid, beta: float = 0.8) -> MHDState:
    """3D Orszag-Tang configuration.

    u = (-2 sin y, 2 sin x, 0)
    h = beta (-2 sin 2y + sin z, 2 sin x + sin z, sin x + sin y)
    """
    x = np.arange(grid.n) * grid.spacing
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    usamp = np.stack([
        -2.0 * np.sin(Y),
        2.0 * np.sin(X),
        np.zeros_like(X),
    ])
    hsamp = beta * np.stack([
        -2.0 * np.sin(2.0 * Y) + np.sin(Z),
        2.0 * np.sin(X) + np.sin(Z),
        np.sin(X) + np.sin(Y),
    ])
    uf = symmetrize(from_physical(grid, usamp))
    hf = symmetrize(from_physical(grid, hsamp))
    return MHDState(uf, hf, 0.0)


def random_band(grid: Grid, seed: int, kmax: int,
                amplitude: float = 1.0) -> MHDState:
    """Deterministic random band-limited divergence-free state.

    Coefficients are drawn for modes with 0 < max_i |k_i| <= kmax, then
    Leray-projected and Hermitian-symmetrized.  kmax must stay inside the
    dealiased ball (kmax < n/3).
    """
    rng = np.random.default_rng(seed)
    u = random_band_field(grid, rng, kmax, amplitude)
    h = random_band_field(grid, rng, kmax, amplitude)
    return MHDState(u, h, 0.0)


def random_band_field(grid: Grid, seed: int | np.random.Generator, kmax: int,
                      amplitude: float = 1.0,
                      solenoidal: bool = True) -> SpectralField:
    """Single deterministic random band-limited field.

    `seed` is an int or a numpy Generator; a Generator is drawn from in
    place, so consecutive calls sharing one give independent fields.
    """
    if kmax >= grid.n / 3.0:
        raise GridError(
            f"random_band kmax={kmax} would alias on n={grid.n} (need kmax < n/3)"
        )
    rng = np.random.default_rng(seed)
    n = grid.n
    raw = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    k = grid.modes
    band1 = np.abs(k) <= kmax
    band = band1[:, None, None] & band1[None, :, None] & band1[None, None, :]
    v = SpectralField(grid, amplitude * raw * band)
    if solenoidal:
        v = leray_project(v)
    return symmetrize(v)


def init_state(kind: str, grid: Grid, **params) -> MHDState:
    """Dispatch on initial-condition kind: taylor-green | orszag-tang | random-band."""
    if kind in ("taylor-green", "taylor_green_mhd"):
        return taylor_green_mhd(grid, **params)
    if kind in ("orszag-tang", "orszag_tang_3d"):
        return orszag_tang_3d(grid, **params)
    if kind in ("random-band", "random_band"):
        return random_band(grid, **params)
    raise ValueError(f"unknown initial condition kind: {kind!r}")
