"""Binary persistence of fields and trajectories.

Layout (all little-endian):

    magic   4 bytes  b"BOSP"
    version u32      1
    lambda  f64
    n       u32      collocation points
    k       u32      nonlinearity degree (0 when not applicable)
    tag     u8       0 none, 1 linear, 2 bo2, 3 gbo, 4 renormalized_gbo
    -- field file --
    time    f64
    coeffs  n x (f64 re, f64 im) in transform mode order
    -- trajectory file --
    count   u32      number of snapshots (>= 2)
    count x [ time f64; coeffs n x (f64, f64) ]

Fields and trajectories share the header; the two forms are told apart by
exact file-size arithmetic (for a given n the sizes can never coincide).
Loads are all-or-nothing: any mismatch raises before an object is built.
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
from .spectral import (PeriodicGrid, SpectralField, Trajectory, _conjugate_symmetric,
                       _full_spectrum)

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "VERSION", "EQUATION_TAGS"]

MAGIC = b"BOSP"
VERSION = 1

EQUATION_TAGS = {"none": 0, "linear": 1, "bo2": 2, "gbo": 3, "renormalized_gbo": 4}
_TAG_NAMES = {v: k for k, v in EQUATION_TAGS.items()}

_HEADER = struct.Struct("<4sIdIIB")


def _records(n: int) -> np.dtype:
    """One stored sample: its time and n coefficients in transform mode order."""
    return np.dtype([("time", "<f8"), ("coeffs", "<c16", (n,))])


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFinitePayloadError("checkpoint payload contains non-finite values")


def save_checkpoint(obj, path, time: float = 0.0, equation: str = "none", k: int = 0):
    """Serialize a SpectralField or Trajectory to ``path``.

    For fields, ``time``/``equation``/``k`` annotate the header (defaults:
    t = 0, no equation).  Trajectories carry their own tag, k and sample
    times.  Non-finite payloads are refused.
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
        records = np.empty(len(obj), dtype=_records(obj.grid.n))
        records["time"] = obj.times
        _full_spectrum(obj.half_coeffs, obj.grid.n, out=records["coeffs"])
    else:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")
    header = _HEADER.pack(MAGIC, VERSION, obj.grid.lam, obj.grid.n, k, tag)
    with open(path, "wb") as fh:
        fh.write(header + count)
        fh.write(records)


def load_checkpoint(path):
    """Load a checkpoint; returns a SpectralField or a Trajectory.

    Trajectory snapshots must be exactly conjugate symmetric (real slots 0
    and n/2, mode -m the conjugate of mode m), as ``save_checkpoint`` writes
    them; ``spectral._conjugate_symmetric`` tests the whole stack at once.
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
    size = 8 + 16 * n  # bytes per stored sample; n may be huge until a size matches

    if len(rest) == size:
        (record,) = np.frombuffer(rest, dtype=_records(n))
        _check_finite(record["time"], record["coeffs"])
        return SpectralField(grid, record["coeffs"])

    if len(rest) >= 4:
        (count,) = struct.unpack_from("<I", rest)
        if len(rest) == 4 + count * size:
            records = np.frombuffer(rest, dtype=_records(n), offset=4)
            coeffs = records["coeffs"]
            _check_finite(records["time"], coeffs)
            if not _conjugate_symmetric(coeffs):
                raise CheckpointError("trajectory snapshots are not conjugate symmetric")
            equation = _TAG_NAMES[tag]
            if equation == "none":
                raise CheckpointError("trajectory checkpoint carries no equation tag")
            try:
                return Trajectory(grid, records["time"], coeffs[:, : n // 2 + 1], equation, k)
            except ValueError as exc:
                raise CheckpointError(f"invalid trajectory: {exc}") from exc

    raise TruncatedFileError(
        f"payload of {len(rest)} bytes matches neither a field ({size}) "
        f"nor a whole number of snapshots"
    )
