"""Binary persistence of fields and trajectories.

Layout (all little-endian):

    magic   4 bytes  b"BOSP"
    version u32      2
    lambda  f64
    n       u32      collocation points
    k       u32      nonlinearity degree (0 when not applicable)
    tag     u8       0 none, 1 linear, 2 bo2, 3 gbo, 4 renormalized_gbo
    -- field file --
    time    f64
    coeffs  n x (f64 re, f64 im) in transform mode order
    -- trajectory file --
    count   u32      number of snapshots (>= 2)
    count x [ time f64; coeffs (n/2+1) x (f64, f64), modes 0..n/2 ]

A field keeps its full spectrum (complex fields are legal); a trajectory
record is one row of ``Trajectory.half_coeffs``.  The forms share the
header and differ in payload size: 8 + 16n bytes for a field, 4 + S (24 + 8n)
for S >= 2 snapshots, at least 52 + 16n, so the sizes never coincide.
Loads are all-or-nothing and raise before an object is built; version-1
files (full-spectrum trajectory records) raise ``VersionError``.
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

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "VERSION", "EQUATION_TAGS"]

MAGIC = b"BOSP"
VERSION = 2

EQUATION_TAGS = {"none": 0, "linear": 1, "bo2": 2, "gbo": 3, "renormalized_gbo": 4}
_TAG_NAMES = {v: k for k, v in EQUATION_TAGS.items()}

_HEADER = struct.Struct("<4sIdIIB")


def _records(modes: int) -> np.dtype:
    """One stored sample: its time and ``modes`` complex coefficients."""
    return np.dtype([("time", "<f8"), ("coeffs", "<c16", (modes,))])


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFinitePayloadError("checkpoint payload contains non-finite values")


def save_checkpoint(obj, path, time: float = 0.0, equation: str = "none", k: int = 0):
    """Serialize a SpectralField or Trajectory to ``path``.

    A field is written as its full (n,) spectrum; ``time``/``equation``/``k``
    annotate the header (defaults: t = 0, no equation).  A trajectory is
    written as its (S, n/2+1) half-spectrum stack, unexpanded, with its own
    tag, k and sample times.  Non-finite payloads are refused.
    """
    if isinstance(obj, SpectralField):
        if equation not in EQUATION_TAGS:
            raise CheckpointError(f"unknown equation tag {equation!r}")
        _check_finite(obj.coeffs, [time, obj.grid.lam])
        k, tag, count = int(k), EQUATION_TAGS[equation], b""
        records = np.empty(1, dtype=_records(obj.grid.n))
        records["time"], records["coeffs"] = time, obj.coeffs
    elif isinstance(obj, Trajectory):
        _check_finite(obj.times, [obj.grid.lam], obj.half_coeffs)
        k, tag, count = obj.k, EQUATION_TAGS[obj.equation], struct.pack("<I", len(obj))
        records = np.empty(len(obj), dtype=_records(obj.grid.n // 2 + 1))
        records["time"], records["coeffs"] = obj.times, obj.half_coeffs
    else:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")
    header = _HEADER.pack(MAGIC, VERSION, obj.grid.lam, obj.grid.n, k, tag)
    with open(path, "wb") as fh:
        fh.write(header + count)
        fh.write(records)


def load_checkpoint(path):
    """Load a checkpoint; returns a SpectralField or a Trajectory.

    After the finiteness check, the ``Trajectory`` constructor checks a
    trajectory's records; its ``ValueError`` becomes ``CheckpointError``.
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
    rest = raw[_HEADER.size:]
    size = 8 + 16 * n  # a field's payload; n may be huge until a size matches

    if len(rest) == size:
        (record,) = np.frombuffer(rest, dtype=_records(n))
        _check_finite(record["time"], record["coeffs"])
        return SpectralField(grid, record["coeffs"])

    if len(rest) >= 4:
        (count,) = struct.unpack_from("<I", rest)
        if len(rest) == 4 + count * (24 + 8 * n):
            records = np.frombuffer(rest, dtype=_records(n // 2 + 1), offset=4)
            _check_finite(records["time"], records["coeffs"])
            equation = _TAG_NAMES[tag]
            if equation == "none":
                raise CheckpointError("trajectory checkpoint carries no equation tag")
            try:
                return Trajectory(grid, records["time"], records["coeffs"], equation, k)
            except ValueError as exc:
                raise CheckpointError(f"invalid trajectory: {exc}") from exc

    raise TruncatedFileError(
        f"payload of {len(rest)} bytes matches neither a field ({size}) "
        f"nor a whole number of snapshots"
    )
