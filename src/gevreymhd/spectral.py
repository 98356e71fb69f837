"""Torus discretization and Fourier-space field containers.

Fields on T^3 = [0, 2pi)^3 are stored as full complex coefficient arrays in
numpy FFT layout, one array of shape (3, n, n, n) per vector field.  The
coefficient convention is the Fourier-series one: a single coefficient
v_hat_k = c (together with its conjugate partner at -k) represents the
physical field c * exp(i k.x) + conj(c) * exp(-i k.x).  Real fields are kept
real by enforcing Hermitian symmetry explicitly rather than using a
half-spectrum layout; the signed-k index arithmetic needed by the triad
verification code is then trivial.

The inverse transforms (`to_physical` and `operators.gradient_physical`)
take real fields only: they read the k_3 >= 0 half of each component,
c[..., :n//2+1], and make real samples by three one-axis passes, a complex
inverse along the first two mode axes in a scratch array and a
complex-to-real inverse along the third written straight into the output,
about half the work of a complex 3-D inverse.  The derivative multipliers
i k_m, which the gradient and the curl share, are zero at the wavenumber
n/2, whose mode is its own conjugate partner, so a derivative stays
Hermitian.  The forward transform (`from_physical`) is a complex 3-D
transform.  Every transform works in arrays the caller allocated, with the
component axis leading, and `to_physical` and `from_physical` take the
components of several fields in one call.  Below n = 64 (`_POOL_MIN_N`)
each pass is one numpy call over all of a transform's components, on the
calling thread, as a second thread gained little or lost there: the
samples of any number of fields and a gradient tensor take three calls, a
forward transform one.  On grids with n >= 64 the components are split
into one contiguous group per CPU in the process's affinity mask, and a
group transforms one component per call in its own one-component scratch;
the calling thread runs one group and a module-level thread pool, created
on first use, runs the others.  numpy's transforms release the interpreter
lock, so the groups run in parallel, and the u and h of a state,
transformed together, make six components that split evenly over two or
three CPUs.  The solver's elementwise n^3 passes (the dealias mask, the
Leray projection, the advection products and the RK4 updates) run on the
same pool through `_over_slabs`, which splits the first mode axis into one
slab per CPU; smaller grids run them on the calling thread.  A pass over
the component axis computes each component with the same arithmetic as a
call on that component alone, and an elementwise pass computes each entry
the same way on any slab, so the outputs are bit-identical for any thread
count and for either way of batching the components.

The per-mode tables of the spectral operators (wavevectors, the Leray
denominator |k|^2 and the dealias mask) are built once per grid size and
shared read-only.  `dealias` and `leray_project` copy their input and run
the in-place kernels the solver calls on arrays it owns.
"""

import functools
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

    def band_mask(self, kmax: float) -> np.ndarray:
        """Boolean (n, n, n) mask of the modes with every |k_i| <= kmax."""
        keep1 = np.abs(self.modes) <= kmax
        return keep1[:, None, None] & keep1[None, :, None] & keep1[None, None, :]


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

    # The three maxima below go one k1 plane at a time, so they allocate
    # O(n^2): a checkpoint load takes all three of both fields it reads.

    def max_amplitude(self) -> float:
        c = self.coeffs
        return float(np.max([np.max(np.abs(c[:, i]))
                             for i in range(self.grid.n)]))

    def hermitian_defect(self) -> float:
        """max |v_hat(-k) - conj(v_hat(k))| over all modes and components."""
        c, n = self.coeffs, self.grid.n
        neg = -np.arange(n) % n  # the index of -k along one mode axis

        def plane(i):  # |conj(v_hat(-k)) - v_hat(k)|, the modulus above
            d = c[:, neg[i]][:, neg[:, None], neg]
            np.conjugate(d, out=d)
            return np.max(np.abs(np.subtract(d, c[:, i], out=d)))

        return float(np.max([plane(i) for i in range(n)]))

    def divergence_defect(self) -> float:
        """max_k |k . v_hat_k|."""
        # Not _tables(n).k: built by a checkpoint load, before the first
        # step, the tables raised an n=64 resume's peak RSS by 10 MB.
        k, c = self.grid.modes, self.coeffs
        return float(np.max([
            np.max(np.abs(k[i] * c[0, i] + k[:, None] * c[1, i] + k * c[2, i]))
            for i in range(self.grid.n)]))


class _Tables:
    """Per-mode operator tables of an n^3 grid, read-only.

    The wavevectors are stored as the complex values numpy casts the integer
    ones to when they meet complex coefficients, so they compute the same
    bits without a cast.  The derivative multipliers ik are zero at the
    wavenumber n/2: that mode is its own partner, so i k c there would break
    the Hermitian symmetry the real inverse transform assumes (the usual
    convention for odd derivatives on an even grid).  The n^3 tables, |k|^2
    (1 at k = 0) and the dealias mask, keep their float and boolean types: a
    complex copy would be 2 and 16 times larger, and the cast, done in small
    buffers, gives the same bits.
    """

    def __init__(self, n: int):
        grid = Grid(n)
        k1, k2, k3 = grid.wavevectors()
        k2norm = (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)
        k2norm[0, 0, 0] = 1.0  # the k=0 coefficient is zero anyway
        self.k = tuple(km.astype(np.complex128) for km in (k1, k2, k3))
        self.ik = tuple(1j * np.where(km == -n // 2, 0, km)
                        for km in (k1, k2, k3))
        self.k2norm = k2norm
        self.mask = grid.band_mask(n / 3.0)
        for table in (*self.k, *self.ik, self.k2norm, self.mask):
            table.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _tables(n: int) -> _Tables:
    return _Tables(n)


def symmetrize(v: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric (real-field) subspace, pin k=0 to 0."""
    neg = -np.arange(v.grid.n) % v.grid.n  # the index of -k along one axis
    # One axis at a time: one broadcast index over all three raised an n=64
    # run's peak RSS by 6 MB.
    reflected = np.take(np.take(np.take(v.coeffs, neg, 1), neg, 2), neg, 3)
    c = 0.5 * (v.coeffs + np.conj(reflected))
    c[:, 0, 0, 0] = 0.0
    return SpectralField(v.grid, c)


# Smallest grid whose transforms and elementwise passes use the thread pool.
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


def _run_groups(groups: int, run) -> list:
    """Return [run(g) for g in range(groups)], run in parallel.

    The calling thread runs group 0 and the module's thread pool the others;
    numpy's error state is per thread, so the workers take the caller's.
    Every group finishes before this returns or raises, and an exception
    raised in any group reaches the caller.
    """
    err = np.geterr()

    def in_callers_state(g):
        with np.errstate(**err):
            return run(g)

    futures = [_executor().submit(in_callers_state, g)
               for g in range(1, groups)]
    try:
        results = [run(0)]
    finally:
        for future in futures:
            future.exception()  # waits, so no worker outlives the call
    return results + [future.result() for future in futures]


def _transform_components(n: int, count: int, job, scratch: bool) -> None:
    """Call job(s, buf) over slices s of range(count) that cover it once.

    buf is complex scratch of shape (len(s), n, n, n//2 + 1), the shape of
    the k_3 >= 0 halves of those components (None without `scratch`); the
    caller allocates it, so worker threads allocate nothing large, whose
    freed blocks glibc's per-thread arenas would keep.  Below _POOL_MIN_N
    one call covers every component, so each one-axis pass of a transform
    is one numpy call over all of them.  On larger grids the components are
    split into contiguous groups, one per CPU, run as `_run_groups` runs
    them; a group calls job on one component at a time with its own
    one-component scratch.
    """
    shape = (n, n, n // 2 + 1)
    if n < _POOL_MIN_N:
        buf = np.empty((count, *shape), dtype=np.complex128) if scratch else None
        job(slice(0, count), buf)
        return
    groups = min(count, _cpu_count())
    bounds = [count * g // groups for g in range(groups + 1)]
    if scratch:
        bufs = np.empty((groups, 1, *shape), dtype=np.complex128)
    else:
        bufs = [None] * groups

    def run_group(g):
        for i in range(bounds[g], bounds[g + 1]):
            job(slice(i, i + 1), bufs[g])

    _run_groups(groups, run_group)


def _over_slabs(n: int, job, *args) -> list:
    """Return job(s, *args) for slices s that split the first mode axis.

    On grids with n >= _POOL_MIN_N the axis of length n is split into one
    contiguous slab per CPU, run as `_run_groups` runs its groups; smaller
    grids call job(slice(None), *args) once on the calling thread.  A job
    applies its elementwise kernel to slab s of every array it is given
    (c[:, s] of a (3, n, n, n) array, t[s] of an (n, n, n) table) and
    writes only arrays the caller allocated.  Elementwise results do not
    depend on the split, so they are bit-identical for any CPU count.
    """
    if n < _POOL_MIN_N:
        return [job(slice(None), *args)]
    groups = min(n, _cpu_count())
    bounds = [n * g // groups for g in range(groups + 1)]
    return _run_groups(
        groups, lambda g: job(slice(bounds[g], bounds[g + 1]), *args))


def _real_inverse(half: np.ndarray, buf: np.ndarray, out: np.ndarray) -> None:
    """Unscaled real inverse of stacked components' k_3 >= 0 halves, into out.

    half holds c[..., :n//2+1] of Hermitian components, the component axis
    leading (it may be buf itself); buf is scratch of its shape and is
    overwritten.  The passes are one-axis calls of numpy's n-D functions,
    which allocate no n^3 intermediates as a 3-axis `irfftn` would.
    """
    np.fft.ifftn(half, axes=(1,), norm="forward", out=buf)
    np.fft.ifftn(buf, axes=(2,), norm="forward", out=buf)
    np.fft.irfftn(buf, s=out.shape[-1:], axes=(3,), norm="forward", out=out)


def to_physical(*fields: SpectralField) -> np.ndarray:
    """Inverse transform of real fields to collocation samples.

    The fields must be real (Hermitian coefficients): only the k_3 >= 0
    half of each component is read.  The samples of several fields come in
    one array, their components one after another: shape (3m, n, n, n) for
    m fields, so the components of all of them are shared out over the
    CPUs together.
    """
    n = fields[0].grid.n
    if any(f.grid.n != n for f in fields):
        raise GridError("fields to transform live on different grids")
    halves = [f.coeffs[..., :n // 2 + 1] for f in fields]
    out = np.empty((3 * len(fields), n, n, n))

    def job(s, buf):
        f, c = divmod(s.start, 3)
        if s.stop <= 3 * f + 3:  # one field holds them: read them in place
            _real_inverse(halves[f][c:c + s.stop - s.start], buf, out[s])
        else:  # every component of several fields (n < _POOL_MIN_N)
            np.concatenate(halves, out=buf)
            _real_inverse(buf, buf, out[s])

    _transform_components(n, len(out), job, scratch=True)
    return out


def from_physical(grid: Grid, samples: np.ndarray):
    """Forward transform of collocation samples; pins the mean mode to zero.

    samples of shape (3, n, n, n) give one SpectralField; the stacked
    samples of m fields, shape (3m, n, n, n) as `to_physical` returns them,
    give a tuple of m fields that share one coefficient array.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = grid.n
    if (samples.ndim != 4 or samples.shape[1:] != (n, n, n)
            or samples.shape[0] % 3 or not samples.shape[0]):
        raise GridError(
            f"sample array shape {samples.shape} does not match grid n={n}"
        )
    coeffs = np.empty(samples.shape, dtype=np.complex128)

    def job(s, _):
        coeffs[s] = samples[s]
        np.fft.fftn(coeffs[s], axes=(1, 2, 3), out=coeffs[s])
        np.divide(coeffs[s], n**3, out=coeffs[s])

    _transform_components(n, len(coeffs), job, scratch=False)
    coeffs[:, 0, 0, 0] = 0.0
    fields = tuple(SpectralField(grid, coeffs[i:i + 3])
                   for i in range(0, len(coeffs), 3))
    return fields[0] if len(fields) == 1 else fields


def _mask_slab(s, c, mask):
    np.multiply(c[:, s], mask[s], out=c[:, s])


def _dealias_in_place(v: SpectralField) -> SpectralField:
    """Multiply v by the 2/3-rule mask in place; returns v."""
    _over_slabs(v.grid.n, _mask_slab, v.coeffs, _tables(v.grid.n).mask)
    return v


def dealias(v: SpectralField) -> SpectralField:
    """Zero every mode with any |k_i| > n/3 (2/3 rule); idempotent."""
    return _dealias_in_place(v.copy())


def _leray_slab(s, c, kdotv, term, tables):
    k = (tables.k[0][s], *tables.k[1:])
    c, kdotv, term = c[:, s], kdotv[s], term[s]
    np.multiply(k[0], c[0], out=kdotv)
    np.multiply(k[1], c[1], out=term)
    kdotv += term
    np.multiply(k[2], c[2], out=term)
    kdotv += term
    kdotv /= tables.k2norm[s]
    for ci, km in zip(c, k):
        np.multiply(km, kdotv, out=term)
        ci -= term


def _leray_in_place(v: SpectralField) -> SpectralField:
    """Leray-project v in place with two n^3 scratch arrays; returns v.

    Evaluates c_i - k_i ((k1 c_1 + k2 c_2 + k3 c_3) / |k|^2) in that order.
    """
    n = v.grid.n
    kdotv, term = np.empty((2, n, n, n), dtype=np.complex128)
    _over_slabs(n, _leray_slab, v.coeffs, kdotv, term, _tables(n))
    v.coeffs[:, 0, 0, 0] = 0.0
    return v


def leray_project(v: SpectralField) -> SpectralField:
    """Per-mode projection v_hat_k -> v_hat_k - k (k.v_hat_k)/|k|^2.

    Annihilates gradient fields, fixes divergence-free fields, idempotent.
    """
    return _leray_in_place(v.copy())


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


def taylor_green_mhd(grid: Grid, amplitude: float = 1.0) -> MHDState:
    """Taylor-Green velocity with an insulating-type magnetic perturbation.

    u = A (sin x cos y cos z, -cos x sin y cos z, 0)
    h = (cos x sin y sin z, sin x cos y sin z, -2 sin x sin y cos z)

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
        np.cos(X) * np.sin(Y) * np.sin(Z),
        np.sin(X) * np.cos(Y) * np.sin(Z),
        -2.0 * np.sin(X) * np.sin(Y) * np.cos(Z),
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
    v = SpectralField(grid, amplitude * raw * grid.band_mask(kmax))
    if solenoidal:
        v = leray_project(v)
    return symmetrize(v)


# Initial-condition kind -> (constructor, the config keys it takes).
INITIAL_CONDITIONS = {
    "taylor-green": (taylor_green_mhd, ("amplitude",)),
    "orszag-tang": (orszag_tang_3d, ("beta",)),
    "random-band": (random_band, ("seed", "kmax", "amplitude")),
}


def init_state(kind: str, grid: Grid, **params) -> MHDState:
    """Build the initial state of a kind named in INITIAL_CONDITIONS."""
    if kind not in INITIAL_CONDITIONS:
        raise ValueError(f"unknown initial condition kind: {kind!r}")
    build, _keys = INITIAL_CONDITIONS[kind]
    return build(grid, **params)
