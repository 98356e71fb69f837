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
Hermitian.  The one forward transform, `_band_forward`, is complex and
makes only the 2/3-rule band (`_Band`), the modes with every |k_i| <= n/3,
0.30 of them at n = 64: it runs numpy's passes in numpy's order, each on
the lines the band reads, so each kept coefficient has the bits of numpy's
full transform.  It transforms the solver's and the operators' products,
and the samples of the Taylor-Green and Orszag-Tang states, so every
initial state, like every stepped one, is +0.0 outside the band.  Every
transform works in arrays the caller allocated, with the component axis
leading; `to_physical` and `_band_forward` take the components of several
fields in one call.  Below n = 64 (`_POOL_MIN_N`) each pass is one numpy
call over all of a transform's components, on the calling thread, as a
second thread gained little or lost there: the samples of any number of
fields, a gradient tensor and a band forward transform take three calls
each.  On grids with n >= 64 the
components are split into one contiguous group per CPU in the process's
affinity mask, and a group transforms one component per call in its own
one-component scratch; the calling thread runs one group and a module-level
thread pool, created on first use, runs the others.  numpy's transforms
release the interpreter lock, so the groups run in parallel, and the u and h
of a state, transformed together, make six components that split evenly over
two or three CPUs.  The elementwise passes (the Leray projection, the
advection products, the RK4 updates, the curl and the sample-side maxima)
run on the same pool through `_over_slabs`, which splits the first mode
axis, or the band's, into one slab per CPU; smaller grids run them on the
calling thread, and so does the solver's finiteness check of a stage at
every n, one numpy call that was no faster pooled.  A pass over the
component axis computes each component with the same arithmetic as a call on
that component alone, and an elementwise pass computes each entry the same
way on any slab, so the outputs are bit-identical for any thread count and
for either way of batching the components.

The per-mode tables of the spectral operators (wavevectors, derivative
multipliers and the Leray denominator |k|^2, full-size in `_tables` and at
the band's modes in `_band`) are built on first use per grid size and
shared read-only.  One projection kernel, `_leray_slab`, projects full
fields (`leray_project`, on a copy) and the solver's band arrays.
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

    # The four maxima below go one k1 plane at a time, so they allocate
    # O(n^2): a checkpoint load takes all four of both fields it reads.

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

    def band_defect(self) -> float:
        """max |v_hat_k| over the modes outside the 2/3 band (some |k_i| > n/3)."""
        c, n = self.coeffs, self.grid.n
        cut = slice(n // 3 + 1, n - n // 3)  # the indices outside the band

        def plane(i):
            p = c[:, i]
            if min(i, n - i) > n // 3:
                return np.max(np.abs(p))
            return np.max([np.max(np.abs(p[:, cut])),
                           np.max(np.abs(p[..., cut]))])

        return float(np.max([plane(i) for i in range(n)]))


class _Tables:
    """Per-mode operator tables of an n^3 grid, read-only.

    The wavevectors are stored as the complex values numpy casts the integer
    ones to when they meet complex coefficients, so they compute the same
    bits without a cast.  The derivative multipliers ik are zero at the
    wavenumber n/2: that mode is its own partner, so i k c there would break
    the Hermitian symmetry the real inverse transform assumes (the usual
    convention for odd derivatives on an even grid).  The n^3 table |k|^2
    (1 at k = 0) keeps its float type: a complex copy would be twice as
    large, and the cast, done in small buffers, gives the same bits.
    """

    def __init__(self, n: int):
        k1, k2, k3 = Grid(n).wavevectors()
        self.k, self.k2norm = _projection_tables(k1, k2, k3)
        self.ik = tuple(1j * np.where(km == -n // 2, 0, km)
                        for km in (k1, k2, k3))
        for table in self.ik:
            table.flags.writeable = False


def _projection_tables(k1, k2, k3) -> tuple:
    """Read-only complex wavevectors and |k|^2 (1 at k = 0) of a Leray
    projection, from broadcastable integer wavevectors whose first entries
    are k = 0."""
    k2norm = (k1 * k1 + k2 * k2 + k3 * k3).astype(np.float64)
    k2norm[0, 0, 0] = 1.0  # the k=0 coefficient is zero anyway
    k = tuple(km.astype(np.complex128) for km in (k1, k2, k3))
    for table in (*k, k2norm):
        table.flags.writeable = False
    return k, k2norm


@functools.lru_cache(maxsize=8)
def _tables(n: int) -> _Tables:
    return _Tables(n)


class _Band:
    """The 2/3-rule band of an n^3 grid: its layout and projection tables.

    The band keeps the modes with every |k_i| <= n/3, K = n // 3 and
    B = 2K + 1 indices per mode axis: the grid indices 0..K, then
    n-K..n-1, in FFT order.  A band array, shape (m, B, B, B), is a full
    coefficient array with the other indices of each mode axis removed.
    Along one axis the band is two runs of grid indices, so it is eight
    rectangular blocks of the grid, which `blocks` names.  k and k2norm are
    `_Tables`' k and k2norm at the band's modes, read-only.
    """

    def __init__(self, n: int):
        K = n // 3
        self.width = 2 * K + 1
        self.rows = np.r_[0:K + 1, n - K:n]  # grid index of each band index
        # (first band index, last + 1, grid index less band index) per run
        self._runs = ((0, K + 1, 0), (K + 1, self.width, n - self.width))
        k = Grid(n).modes[self.rows]
        self.k, self.k2norm = _projection_tables(
            k[:, None, None], k[None, :, None], k[None, None, :])

    def pieces(self, lo: int = 0, hi: int | None = None) -> list:
        """(band slice, grid slice) of each run of the band indices lo..hi-1."""
        hi = self.width if hi is None else hi
        out = []
        for start, stop, shift in self._runs:
            a, b = max(lo, start), min(hi, stop)
            if a < b:
                out.append((slice(a, b), slice(a + shift, b + shift)))
        return out

    def blocks(self, s: slice = slice(None)) -> list:
        """(band index, grid index) of each block in band indices s of the
        first mode axis; the indices take every component."""
        lo, hi, _ = s.indices(self.width)
        whole = self.pieces()
        return [((slice(None), b1, b2, b3), (slice(None), g1, g2, g3))
                for b1, g1 in self.pieces(lo, hi)
                for b2, g2 in whole for b3, g3 in whole]


@functools.lru_cache(maxsize=8)
def _band(n: int) -> _Band:
    return _Band(n)


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


def _transform_components(n: int, count: int, job, scratch) -> None:
    """Call job(s, buf) over slices s of range(count) that cover it once.

    buf is complex scratch of shape (len(s), *scratch), scratch being the
    shape of one component's work; the caller allocates it, so worker
    threads allocate nothing large, whose freed blocks glibc's per-thread
    arenas would keep.  Below _POOL_MIN_N one call covers every component,
    so each one-axis pass of a transform is one numpy call over all of
    them.  On larger grids the components are split into contiguous groups,
    one per CPU, run as `_run_groups` runs them; a group calls job on one
    component at a time with its own one-component scratch.
    """
    if n < _POOL_MIN_N:
        job(slice(0, count), np.empty((count, *scratch), dtype=np.complex128))
        return
    groups = min(count, _cpu_count())
    bounds = [count * g // groups for g in range(groups + 1)]
    bufs = np.empty((groups, 1, *scratch), dtype=np.complex128)

    def run_group(g):
        for i in range(bounds[g], bounds[g + 1]):
            job(slice(i, i + 1), bufs[g])

    _run_groups(groups, run_group)


def _over_slabs(n: int, job, *args, planes: int | None = None) -> list:
    """Return job(s, *args) for slices s that split the first mode axis.

    On grids with n >= _POOL_MIN_N the axis, of length `planes` (n by
    default, B for band arrays), is split into one contiguous slab per CPU,
    run as `_run_groups` runs its groups; smaller grids call
    job(slice(None), *args) once on the calling thread.  A job applies its
    elementwise kernel to slab s of every array it is given (c[:, s] of a
    (3, n, n, n) array, t[s] of an (n, n, n) table) and writes only arrays
    the caller allocated.  Elementwise results do not depend on the split,
    so they are bit-identical for any CPU count.
    """
    if n < _POOL_MIN_N:
        return [job(slice(None), *args)]
    planes = n if planes is None else planes
    groups = min(planes, _cpu_count())
    bounds = [planes * g // groups for g in range(groups + 1)]
    return _run_groups(
        groups, lambda g: job(slice(bounds[g], bounds[g + 1]), *args))


def _real_inverse(buf: np.ndarray, out: np.ndarray) -> None:
    """Unscaled real inverse of stacked components' k_3 >= 0 halves, into out.

    buf holds c[..., :n//2+1] of Hermitian components, the component axis
    leading, contiguous, and is overwritten: its first pass runs in place,
    which is faster than reading a strided half.  The passes are one-axis
    calls of numpy's n-D functions, which allocate no n^3 intermediates as
    a 3-axis `irfftn` would.
    """
    np.fft.ifftn(buf, axes=(1,), norm="forward", out=buf)
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
        if s.stop <= 3 * f + 3:  # one field holds them
            np.copyto(buf, halves[f][c:c + s.stop - s.start])
        else:  # every component of several fields (n < _POOL_MIN_N)
            np.concatenate(halves, out=buf)
        _real_inverse(buf, out[s])

    _transform_components(n, len(out), job, (n, n, n // 2 + 1))
    return out


def _band_forward(samples: np.ndarray) -> np.ndarray:
    """The 2/3-rule band of the forward transform of stacked samples.

    samples has shape (m, n, n, n); the result, shape (m, B, B, B) in
    `_Band`'s layout, holds the coefficients of numpy's
    fftn(samples, axes=(1, 2, 3)) / n**3 at the band's modes bit for bit,
    k = 0 pinned to 0.  It computes the lines of numpy's
    fftn(axes=(1, 2, 3)) in its order, last axis first, but only those the
    band reads: along axis 3 every line, along axis 2 the lines in the
    band's k_3 planes, along axis 1 those in its (k_2, k_3) columns.  Each
    pass runs in place on a contiguous copy of the lines it reads (the
    axis-1 pass in the memory of the axis-3 pass), as passes over strided
    views of a few lines each are slower.
    """
    m, n = samples.shape[0], samples.shape[-1]
    B, runs = _band(n).width, _band(n).pieces()
    out = np.empty((m, B, B, B), dtype=np.complex128)

    def job(s, buf):
        k, flat = s.stop - s.start, buf.reshape(-1)
        full = flat[:k * n**3].reshape(k, n, n, n)
        planes = flat[k * n**3:].reshape(k, n, n, B)
        columns = flat[:k * n * B * B].reshape(k, n, B, B)
        full[...] = samples[s]
        np.fft.fftn(full, axes=(3,), out=full)
        for b, g in runs:
            planes[..., b] = full[..., g]
        np.fft.fftn(planes, axes=(2,), out=planes)
        for b, g in runs:
            columns[:, :, b] = planes[:, :, g]
        np.fft.fftn(columns, axes=(1,), out=columns)
        for b, g in runs:
            out[s, b] = columns[:, g]
        np.divide(out[s], n**3, out=out[s])

    _transform_components(n, m, job, (n**3 + n * n * B,))
    out[:, 0, 0, 0] = 0.0
    return out


def _from_band(band: np.ndarray, n: int) -> np.ndarray:
    """Full (m, n, n, n) coefficients: the band array written in, +0.0
    at every other mode."""
    out = np.zeros((len(band), n, n, n), dtype=np.complex128)
    for b, g in _band(n).blocks():
        out[g] = band[b]
    return out


def _leray_slab(s, c, kdotv, term, k, k2norm):
    """Leray-project slab s of c, 3 components, with the tables k and
    k2norm of its layout (`_Tables`' for full arrays, `_Band`'s for band
    arrays); kdotv and term are scratch of one component's shape."""
    k = (k[0][s], *k[1:])
    c, kdotv, term = c[:, s], kdotv[s], term[s]
    np.multiply(k[0], c[0], out=kdotv)
    np.multiply(k[1], c[1], out=term)
    kdotv += term
    np.multiply(k[2], c[2], out=term)
    kdotv += term
    kdotv /= k2norm[s]
    for ci, km in zip(c, k):
        np.multiply(km, kdotv, out=term)
        ci -= term


def leray_project(v: SpectralField) -> SpectralField:
    """Per-mode projection v_hat_k -> v_hat_k - k (k.v_hat_k)/|k|^2.

    Annihilates gradient fields, fixes divergence-free fields, idempotent.
    Evaluates c_i - k_i ((k1 c_1 + k2 c_2 + k3 c_3) / |k|^2) in that order,
    on a copy, with two n^3 scratch arrays.
    """
    out = v.copy()
    n, tables = v.grid.n, _tables(v.grid.n)
    kdotv, term = np.empty((2, n, n, n), dtype=np.complex128)
    _over_slabs(n, _leray_slab, out.coeffs, kdotv, term, tables.k,
                tables.k2norm)
    out.coeffs[:, 0, 0, 0] = 0.0
    return out


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


def _from_samples(grid: Grid, samples: np.ndarray) -> MHDState:
    """The state whose u and h have the stacked (6, n, n, n) collocation
    samples, cut to the 2/3 band: each field's band forward transform,
    +0.0 at every other mode, made Hermitian with k = 0 pinned to 0.

    The fields are transformed one at a time: one call for both raised a
    Taylor-Green n=64 run's peak RSS by 1.8 MB.
    """
    u, h = (symmetrize(SpectralField(
        grid, _from_band(_band_forward(samples[f:f + 3]), grid.n)))
        for f in (0, 3))
    return MHDState(u, h, 0.0)


def taylor_green_mhd(grid: Grid, amplitude: float = 1.0) -> MHDState:
    """Taylor-Green velocity with an insulating-type magnetic perturbation.

    u = A (sin x cos y cos z, -cos x sin y cos z, 0)
    h = (cos x sin y sin z, sin x cos y sin z, -2 sin x sin y cos z)

    Both are exactly divergence-free and mean-zero.
    """
    x = np.arange(grid.n) * grid.spacing
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    return _from_samples(grid, np.stack([
        amplitude * np.sin(X) * np.cos(Y) * np.cos(Z),
        -amplitude * np.cos(X) * np.sin(Y) * np.cos(Z),
        np.zeros_like(X),
        np.cos(X) * np.sin(Y) * np.sin(Z),
        np.sin(X) * np.cos(Y) * np.sin(Z),
        -2.0 * np.sin(X) * np.sin(Y) * np.cos(Z),
    ]))


def orszag_tang_3d(grid: Grid, beta: float = 0.8) -> MHDState:
    """3D Orszag-Tang configuration.

    u = (-2 sin y, 2 sin x, 0)
    h = beta (-2 sin 2y + sin z, 2 sin x + sin z, sin x + sin y)
    """
    x = np.arange(grid.n) * grid.spacing
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    return _from_samples(grid, np.stack([
        -2.0 * np.sin(Y),
        2.0 * np.sin(X),
        np.zeros_like(X),
        beta * (-2.0 * np.sin(2.0 * Y) + np.sin(Z)),
        beta * (2.0 * np.sin(X) + np.sin(Z)),
        beta * (np.sin(X) + np.sin(Y)),
    ]))


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
    # np.where, not a product with the mask, so every mode left out is +0.0.
    v = SpectralField(grid, np.where(grid.band_mask(kmax), amplitude * raw, 0))
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
