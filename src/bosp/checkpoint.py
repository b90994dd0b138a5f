"""Binary persistence of fields and trajectories.

Layout (all little-endian):

    magic   4 bytes  b"BOSP"
    version u32      2
    lambda  f64
    n       u32      collocation points
    k       u32      nonlinearity degree (0 for a field)
    tag     u8       0 field, 1 linear, 2 bo2, 3 gbo, 4 renormalized_gbo
    -- field file (tag 0) --
    time    f64      0
    coeffs  n x (f64 re, f64 im) in transform mode order
    -- trajectory file (any other tag) --
    count   u32      number of snapshots (>= 2)
    count x [ time f64; coeffs (n/2+1) x (f64, f64), modes 0..n/2 ]

The tag decides the kind.  A field keeps its full spectrum (complex fields
are legal) as one record at time 0; a trajectory record is one row of
``Trajectory.half_coeffs``.  A payload that is not exactly the records the
header and count name raises ``TruncatedFileError``.  Loads are
all-or-nothing and raise before an object is built; version-1 files
(full-spectrum trajectory records) raise ``VersionError``.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import (
    BadMagicError,
    CheckpointError,
    NonFinitePayloadError,
    TruncatedFileError,
    VersionError,
)
from .spectral import PeriodicGrid, SpectralField, Trajectory

__all__ = ["save_checkpoint", "load_checkpoint"]

MAGIC = b"BOSP"
VERSION = 2

EQUATION_TAGS = {"none": 0, "linear": 1, "bo2": 2, "gbo": 3, "renormalized_gbo": 4}
_TAG_NAMES = {v: k for k, v in EQUATION_TAGS.items()}

_HEADER = struct.Struct("<4sIdIIB")
_COUNT = struct.Struct("<I")


def _records(modes: int) -> np.dtype:
    """One stored sample: its time and ``modes`` complex coefficients."""
    return np.dtype([("time", "<f8"), ("coeffs", "<c16", (modes,))])


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFinitePayloadError("checkpoint payload contains non-finite values")


def save_checkpoint(obj, path):
    """Serialize a SpectralField or Trajectory to ``path``.

    A field is written as one record, its full (n,) spectrum at time 0,
    under tag 0 and k 0.  A trajectory is written as its (S, n/2+1)
    half-spectrum stack, unexpanded, with its own tag, k and sample times.
    Non-finite payloads are refused.
    """
    if isinstance(obj, SpectralField):
        k, tag, count, times, coeffs = 0, 0, b"", 0.0, obj.coeffs[None]
    elif isinstance(obj, Trajectory):
        k, tag, count = obj.k, EQUATION_TAGS[obj.equation], _COUNT.pack(len(obj))
        times, coeffs = obj.times, obj.half_coeffs
    else:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")
    _check_finite(times, [obj.grid.lam], coeffs)
    records = np.empty(len(coeffs), dtype=_records(coeffs.shape[-1]))
    records["time"], records["coeffs"] = times, coeffs
    header = _HEADER.pack(MAGIC, VERSION, obj.grid.lam, obj.grid.n, k, tag)
    with open(path, "wb") as fh:
        fh.write(header + count)
        fh.write(records)


def load_checkpoint(path):
    """Load a checkpoint; returns a SpectralField (tag 0) or a Trajectory.

    After the finiteness check, the ``Trajectory`` constructor checks a
    trajectory's records and whether its header's tag and k name an
    equation; its ``ValueError`` becomes ``CheckpointError``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TruncatedFileError(f"file holds {len(raw)} bytes, header needs {_HEADER.size}")
    magic, version, lam, n, k, tag = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionError(f"file version {version}, library supports version {VERSION}")
    if tag not in _TAG_NAMES:
        raise CheckpointError(f"unknown equation tag byte {tag}")
    if not np.isfinite(lam) or lam <= 0:
        raise NonFinitePayloadError(f"invalid lambda {lam!r} in header")
    try:
        grid = PeriodicGrid(lam, n)
    except ValueError as exc:
        raise CheckpointError(f"invalid header: {exc}") from exc

    equation = _TAG_NAMES[tag]
    if equation == "none":
        if k != 0:
            raise CheckpointError(f"a field has k = 0, got k = {k} in header")
        offset, count, modes = _HEADER.size, 1, n
    else:
        offset, modes = _HEADER.size + _COUNT.size, n // 2 + 1
        if len(raw) < offset:
            raise TruncatedFileError(f"file holds {len(raw)} bytes, snapshot count needs {offset}")
        (count,) = _COUNT.unpack_from(raw, _HEADER.size)
    # sized before any dtype is built: a damaged n may name an impossible record
    record = 8 + 16 * modes
    if len(raw) - offset != count * record:
        raise TruncatedFileError(
            f"payload of {len(raw) - offset} bytes is not {count} records of {record} "
            f"bytes, a whole number of snapshots"
        )
    records = np.frombuffer(raw, dtype=_records(modes), count=count, offset=offset)
    _check_finite(records["time"], records["coeffs"])
    if equation == "none":
        return SpectralField(grid, records["coeffs"][0])
    try:
        return Trajectory(grid, records["time"], records["coeffs"], equation, k)
    except ValueError as exc:
        raise CheckpointError(f"invalid trajectory: {exc}") from exc
