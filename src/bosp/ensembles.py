"""Reproducible random field ensembles.

The generator draws a standard complex Gaussian g_m per positive mode m,
weights it by a geometric envelope, conjugate-symmetrizes, normalizes the
zero-mean part in the requested norm and finally sets the mean.  Fields are
analytic (exponential coefficient decay), which keeps every identity in the
suite in its spectral-accuracy regime.  The self-conjugate Nyquist slot is
never populated.

``physical_decay`` switches the envelope from r^|m| (index space) to
r^(|m|/lam) (physical frequency), which makes ensembles on circles of
different sizes comparable frequency by frequency; the high-pass experiment
relies on this.

``random_fields`` draws a whole ensemble with one generator call of shape
(count, 2, n_modes), the real and imaginary parts of each field in turn,
and normalizes it with one norm over the coefficient stack; numpy fills a
sized draw in the order of repeated calls, so field i is the one the i-th
of ``count`` ``random_field`` calls would draw.  ``random_field`` is its
one-row case; both check ``count``, ``n_modes``, ``normalize``, ``decay``,
``amplitude`` and ``mean`` before drawing.  A caller that draws several
fields per sample takes one block of shape (count, roles, 2, n_modes) and
turns each role's slice into fields with ``_fields_from_normals``, which
keeps that order too.  That is the one draw path, and it checks ``lam``
against the normalization's H^s weight.
"""

from __future__ import annotations

import numpy as np

from .spectral import (PeriodicGrid, SpectralField, _Rule, _check_values, _choice, _finite,
                       _finite_symbol, _integer, _parseval_norms)

__all__ = ["random_field", "random_fields"]

# The H^s smoothness of each normalization; None is the L^2 norm.
_NORM_ORDERS = {"l2": None, "h1": 1.0, "h2": 2.0}

# Rules shared with config keys (see spectral); amplitude and mean need only be finite.
_RULES = {"decay": _Rule(lambda v: _finite(v) and 0 < v <= 1, "in (0, 1]")}


def _fields_from_normals(grid: PeriodicGrid, normals: np.ndarray, decay: float,
                         amplitude: float, normalize: str, mean: float,
                         physical_decay: bool) -> list:
    """Real fields from standard normal pairs (count, 2, n_modes).

    Row i's pair holds the real and imaginary parts of its g_m.  The
    fluctuation (mean excluded) of each field is rescaled to ``amplitude``
    in ``h1``, ``l2`` or ``h2``; ``mean`` is written into C_0 after that.
    A grid whose lam is so small that the H^s weight (1 + q^2)^s of the
    normalization overflows a float is refused by the rule of ``lam``.
    """
    s = _NORM_ORDERS[normalize]
    if s is not None:
        _Rule(lambda lam: _finite_symbol(grid, "bessel", 2).test(s),
              f"such that the {normalize} weight (1 + q^2)^{s:g} is finite on this grid"
              ).check("lam", grid.lam)
    count, _, n_modes = normals.shape
    m = np.arange(1, n_modes + 1)
    envelope = decay ** (m / grid.lam) if physical_decay else decay ** m
    g = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
    coeffs = np.zeros((count, grid.n), dtype=np.complex128)
    coeffs[:, 1: n_modes + 1] = g * envelope
    coeffs[:, -n_modes:] = np.conj(coeffs[:, n_modes:0:-1])
    cur = _parseval_norms(coeffs, grid, s)
    if not cur.all():
        raise ValueError("degenerate draw: zero field cannot be normalized")
    # numpy scales complex entries by complex multiplication, as SpectralField
    # * scalar does; scaling the real and imaginary parts apart would give some
    # zero parts other signs, and so other inputs_hash values
    coeffs *= (amplitude / cur)[:, None]
    if mean != 0.0:
        coeffs[:, 0] = mean
    return [SpectralField(grid, row) for row in coeffs]


def random_fields(grid: PeriodicGrid, rng: np.random.Generator, count: int,
                  n_modes: int | None = None, decay: float = 0.7,
                  amplitude: float = 1.0, normalize: str = "h1",
                  mean: float = 0.0, physical_decay: bool = False) -> list:
    """Draw ``count`` real random fields from one generator call.

    ``n_modes`` positive modes are populated: None (the default) or an
    integer >= 1, capped at n/2 - 1.
    ``normalize`` rescales each fluctuation (mean excluded) to ``amplitude``
    in ``h1``, ``l2`` or ``h2``.  ``mean`` is written into C_0 after
    normalization, so pinned-mean ensembles keep their fluctuation size
    exactly.
    """
    _integer(0).check("count", count)
    _Rule(lambda v: v is None or _integer(1).test(v), "None or an integer >= 1").check(
        "n_modes", n_modes)
    _choice(*_NORM_ORDERS).check("normalize", normalize)
    _check_values(_RULES, decay=decay, amplitude=amplitude, mean=mean)
    cap = grid.n // 2 - 1
    n_modes = cap if n_modes is None else min(n_modes, cap)
    return _fields_from_normals(grid, rng.standard_normal((count, 2, n_modes)), decay,
                                amplitude, normalize, mean, physical_decay)


def random_field(grid: PeriodicGrid, rng: np.random.Generator,
                 n_modes: int | None = None, decay: float = 0.7,
                 amplitude: float = 1.0, normalize: str = "h1",
                 mean: float = 0.0, physical_decay: bool = False) -> SpectralField:
    """Draw one real random field: the one-row case of ``random_fields``."""
    return random_fields(grid, rng, 1, n_modes, decay, amplitude, normalize, mean,
                         physical_decay)[0]
