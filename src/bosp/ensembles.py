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
"""

from __future__ import annotations

import numpy as np

from .spectral import PeriodicGrid, SpectralField, norm

__all__ = ["random_field"]


def random_field(grid: PeriodicGrid, rng: np.random.Generator,
                 n_modes: int | None = None, decay: float = 0.7,
                 amplitude: float = 1.0, normalize: str = "h1",
                 mean: float = 0.0, physical_decay: bool = False) -> SpectralField:
    """Draw one real random field.

    ``normalize`` rescales the fluctuation (mean excluded) to ``amplitude``
    in ``h1``, ``l2`` or ``h2``.  ``mean`` is written into C_0 after
    normalization, so pinned-mean ensembles keep their fluctuation size
    exactly.
    """
    cap = grid.n // 2 - 1
    n_modes = cap if n_modes is None else min(int(n_modes), cap)
    if n_modes < 1:
        raise ValueError("need at least one mode")
    m = np.arange(1, n_modes + 1)
    envelope = decay ** (m / grid.lam) if physical_decay else decay ** m
    g = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / np.sqrt(2.0)
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    coeffs[1: n_modes + 1] = g * envelope
    coeffs[-n_modes:] = np.conj(coeffs[1: n_modes + 1][::-1])
    f = SpectralField(grid, coeffs, is_real=True)
    if normalize == "l2":
        cur = norm(f, "lp", p=2)
    elif normalize == "h1":
        cur = norm(f, "hs", s=1.0)
    elif normalize == "h2":
        cur = norm(f, "hs", s=2.0)
    else:
        raise ValueError(f"unknown normalization {normalize!r}")
    if cur == 0.0:
        raise ValueError("degenerate draw: zero field cannot be normalized")
    f = (amplitude / cur) * f
    if mean != 0.0:
        c = f.coeffs.copy()
        c[0] = mean
        f = SpectralField(grid, c, is_real=True)
    return f
