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
from .spectral import PeriodicGrid, SpectralField, Trajectory

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "VERSION", "EQUATION_TAGS"]

MAGIC = b"BOSP"
VERSION = 1

EQUATION_TAGS = {"none": 0, "linear": 1, "bo2": 2, "gbo": 3, "renormalized_gbo": 4}
_TAG_NAMES = {v: k for k, v in EQUATION_TAGS.items()}

_HEADER = struct.Struct("<4sIdIIB")


def _coeff_bytes(coeffs: np.ndarray) -> bytes:
    flat = np.empty(2 * coeffs.size, dtype="<f8")
    flat[0::2] = coeffs.real
    flat[1::2] = coeffs.imag
    return flat.tobytes()


def _coeffs_from(buf: bytes, n: int) -> np.ndarray:
    # a direct view keeps every bit, including the sign of zero imaginary parts
    return np.frombuffer(buf, dtype="<c16", count=n).astype(np.complex128)


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
        header = _HEADER.pack(MAGIC, VERSION, obj.grid.lam, obj.grid.n,
                              int(k), EQUATION_TAGS[equation])
        body = struct.pack("<d", float(time)) + _coeff_bytes(obj.coeffs)
    elif isinstance(obj, Trajectory):
        _check_finite(obj.times, [obj.grid.lam])
        for f in obj:
            _check_finite(f.coeffs)
        header = _HEADER.pack(MAGIC, VERSION, obj.grid.lam, obj.grid.n,
                              obj.k, EQUATION_TAGS[obj.equation])
        parts = [header, struct.pack("<I", len(obj))]
        for t, f in zip(obj.times, obj):
            parts.append(struct.pack("<d", float(t)))
            parts.append(_coeff_bytes(f.coeffs))
        body = b"".join(parts[1:])
    else:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")
    with open(path, "wb") as fh:
        fh.write(header + body)


def load_checkpoint(path):
    """Load a checkpoint; returns a SpectralField or a Trajectory."""
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
    rec = 16 * n

    field_size = 8 + rec
    if len(rest) == field_size:
        (time,) = struct.unpack_from("<d", rest)
        coeffs = _coeffs_from(rest[8:], n)
        _check_finite(coeffs, [time])
        return SpectralField(grid, coeffs)

    if len(rest) >= 4:
        (count,) = struct.unpack_from("<I", rest)
        if len(rest) == 4 + count * (8 + rec):
            times = np.empty(count)
            snaps = []
            off = 4
            for i in range(count):
                (times[i],) = struct.unpack_from("<d", rest, off)
                off += 8
                coeffs = _coeffs_from(rest[off: off + rec], n)
                off += rec
                _check_finite(coeffs)
                snaps.append(SpectralField(grid, coeffs))
            _check_finite(times)
            equation = _TAG_NAMES[tag]
            if equation == "none":
                raise CheckpointError("trajectory checkpoint carries no equation tag")
            try:
                return Trajectory(grid, times, snaps, equation, k)
            except ValueError as exc:
                raise CheckpointError(f"invalid trajectory: {exc}") from exc

    raise TruncatedFileError(
        f"payload of {len(rest)} bytes matches neither a field ({field_size}) "
        f"nor a whole number of snapshots"
    )
