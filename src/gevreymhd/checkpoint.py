"""Binary checkpoints with bitwise round-trip guarantees.

Layout (little-endian throughout):

    magic   4 bytes  b"GMHD"
    version u32
    n       u32
    t       f64
    r       f64
    s       f64
    tau     f64
    u then h: for each component c in 0..2, coefficients in k-lexicographic
    order (k1 outer, k3 inner, indices in FFT layout order), each as an
    (re, im) f64 pair.
"""

import math
import struct
from pathlib import Path

import numpy as np

from .norms import GevreyParams
from .spectral import Grid, MHDState, SpectralField

MAGIC = b"GMHD"
VERSION = 1
_HEADER = struct.Struct("<4sII dddd")


# Largest Hermitian, divergence or band defect of a field read, relative to
# its largest coefficient: the states a run writes sit near 1e-18, and a
# stepped state is exactly zero outside the band.
_DEFECT_RTOL = 1e-10


class CheckpointError(ValueError):
    """Malformed, truncated or incompatible checkpoint file."""


def _check_payload(name: str, field: SpectralField) -> None:
    """Reject a field that is not finite, Hermitian, solenoidal and inside
    the 2/3 band.

    The transforms read only the k_3 >= 0 half of a field, so a field that
    is not Hermitian would silently change meaning, and the first step
    would silently drop its modes outside the band.
    """
    scale = field.max_amplitude()
    if not math.isfinite(scale):
        raise CheckpointError(f"field {name} has non-finite coefficients")
    for what, defect in (("Hermitian", field.hermitian_defect()),
                         ("divergence", field.divergence_defect()),
                         ("band", field.band_defect())):
        if defect > _DEFECT_RTOL * scale:
            raise CheckpointError(
                f"field {name} has a {what} defect of {defect:.3e}, above "
                f"{_DEFECT_RTOL:g} of its largest coefficient {scale:.3e}"
            )


def temporary_path(path) -> Path:
    """The file `save_checkpoint` writes before renaming it to path."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".tmp")


def save_checkpoint(path, state: MHDState, params: GevreyParams,
                    tau: float) -> None:
    """Write state plus (r, s, tau) to path; overwrites atomically.

    Each field's coefficients are written from their own buffer, which is
    already the file's layout on a little-endian machine, so nothing the
    size of the state is copied.
    """
    path = Path(path)
    n = state.grid.n
    header = _HEADER.pack(MAGIC, VERSION, n, state.t, params.r, params.s, tau)
    tmp = temporary_path(path)
    with open(tmp, "wb") as fh:
        fh.write(header)
        for f in (state.u, state.h):
            fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16"))
    tmp.replace(path)


def load_checkpoint(path) -> tuple:
    """Read a checkpoint; returns (state, params_with_tau0, tau).

    The header's grid size and (t, r, s, tau > 0) are validated and the file
    size checked against the header before the fields are read straight into
    the arrays the state keeps; each field must then be finite, Hermitian,
    solenoidal and inside the 2/3 band to roundoff.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    size = path.stat().st_size
    if size < _HEADER.size:
        raise CheckpointError(
            f"truncated checkpoint: {size} bytes < header size "
            f"{_HEADER.size}"
        )
    with open(path, "rb") as fh:
        magic, version, n, t, r, s, tau = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version}, expected {VERSION}"
            )
        if not all(math.isfinite(v) for v in (t, r, s, tau)):
            raise CheckpointError(
                f"non-finite checkpoint header: t={t}, r={r}, s={s}, "
                f"tau={tau}"
            )
        try:
            grid = Grid(n)
            params = GevreyParams(r=r, s=s, tau=tau)
        except ValueError as exc:
            raise CheckpointError(f"bad checkpoint header: {exc}") from None
        if tau <= 0:  # a run writes its tracked radius, at least 1e-300
            raise CheckpointError("bad checkpoint header: tau must be > 0")
        expected = _HEADER.size + 2 * 3 * n**3 * 16
        if size != expected:
            raise CheckpointError(
                f"truncated checkpoint: {size} bytes, expected {expected}"
            )
        fields = []
        for name in ("u", "h"):
            coeffs = np.empty((3, n, n, n), dtype="<c16")
            if fh.readinto(coeffs) != coeffs.nbytes:
                raise CheckpointError(f"truncated checkpoint: {path} ended early")
            fields.append(SpectralField(grid, coeffs))
            _check_payload(name, fields[-1])
    return MHDState(*fields, t), params, tau
