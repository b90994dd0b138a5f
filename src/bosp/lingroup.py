"""Free propagators of the linear problems, as unimodular multipliers.

``bo_group`` evolves u_t + H u_xx = 0: the symbol of H d_xx is i*q|q|, so
the propagator multiplies mode q by exp(-i*q|q|*t).  ``schrodinger_group``
evolves w_t = i w_xx, multiplier exp(-i*q^2*t).  Both satisfy the exact
group law and are unitary on every H^s.

The mixed space-time L^4 norm of a free wave, (integral_0^T ||u(t)||_L4^4
dt)^(1/4), is evaluated exactly by a resonance sum.  With u(t) = sum_a C_a
exp(-i phi_a t) exp(i a x / lam),

    ||u(t)||_L4^4 = 2*pi*lam * sum_m |S_m(t)|^2,
    S_m(t) = sum_{a+b=m} C_a C_b exp(-i (phi_a + phi_b) t),

so the time integral is a sum over pairs of pairs of
integral_0^T exp(-i Omega t) dt with Omega = phi_a + phi_b - phi_c - phi_d:
T on the resonance set Omega = 0, (1 - exp(-i Omega T)) / (i Omega)
elsewhere (the counting behind Bourgain's periodic L^4 estimate, GAFA 3
(1993) 107-156).  Resonances are classified on integer keys lam^2 * phi_a,
so Omega = 0 is detected exactly.
"""

from __future__ import annotations

import numpy as np

from .spectral import PeriodicGrid, SpectralField, _nyquist_split

__all__ = ["GROUP_KINDS", "group_symbol", "propagate", "strichartz_norm"]

GROUP_KINDS = ("bo_group", "schrodinger_group")


def group_symbol(grid: PeriodicGrid, kind: str) -> np.ndarray:
    """Frequency-domain generator: d/dt C_q = symbol_q * C_q.

    The odd bo symbol is zeroed on the self-conjugate Nyquist slot so real
    fields stay real.
    """
    q = grid.freqs
    if kind == "bo_group":
        sym = -1j * q * np.abs(q)
        sym = sym.copy()
        sym[grid.n // 2] = 0.0
        return sym
    if kind == "schrodinger_group":
        return -1j * q * q
    raise ValueError(f"unknown group kind {kind!r}")


def propagate(f: SpectralField, t: float, kind: str = "bo_group") -> SpectralField:
    """Apply the free group at time t (exact multiplier)."""
    mult = np.exp(group_symbol(f.grid, kind) * t)
    # Hermitian multiplier (bo) preserves realness; Schroedinger does not.
    real_out = f.is_real and kind == "bo_group"
    return SpectralField(f.grid, mult * f.coeffs, is_real=real_out)


_EXACT_ENTRIES = 1 << 18  # bounds the padded (m, psi, psi') kernel of one chunk


def _wave_modes(f: SpectralField, kind: str):
    """Ascending modes a, coefficients C_a and integer phase keys lam^2*phi_a.

    Follows the padded transforms' Nyquist convention: real bo rows split
    the slot n/2 into +-n/2 halves (as ``_real_values``), complex rows keep
    it whole at +n/2 (as ``_complex_values``); the bo key there is 0, as in
    ``group_symbol``.  Zero coefficients are dropped.
    """
    if kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    n = f.grid.n
    if f.is_real and kind == "bo_group":
        half = f.coeffs[: n // 2 + 1] * _nyquist_split(n)
        coeffs = np.concatenate((np.conj(half[:0:-1]), half))
        modes = np.arange(-(n // 2), n // 2 + 1)
    else:
        order = np.argsort(f.grid.modes)
        coeffs, modes = f.coeffs[order], f.grid.modes[order]
    if kind == "bo_group":
        keys = modes * np.abs(modes)
        keys[np.abs(modes) == n // 2] = 0
    else:
        keys = modes * modes
    nonzero = coeffs != 0
    return modes[nonzero], coeffs[nonzero], keys[nonzero]


def _resonance_chunk(modes, coeffs, keys, m_lo, m_hi, horizon, lam2, real_rows) -> float:
    """sum over m_lo <= m < m_hi of w_m * integral_0^T |S_m(t)|^2 dt."""
    idx = np.arange(modes.size)
    # unordered pairs i <= j with m_lo <= a_i + a_j < m_hi (modes ascending)
    lo = np.maximum(np.searchsorted(modes, m_lo - modes), idx)
    hi = np.maximum(np.searchsorted(modes, m_hi - modes), lo)
    counts = hi - lo
    if not counts.any():
        return 0.0
    i = np.repeat(idx, counts)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    m = modes[i] + modes[j]
    psi = keys[i] + keys[j]
    prod = np.where(i == j, 1.0, 2.0) * coeffs[i] * coeffs[j]  # a <-> b
    # S_m(t) = sum_k D_k exp(-i psi_k t / lam^2) over the distinct keys psi_k
    order = np.lexsort((psi, m))
    m, psi, prod = m[order], psi[order], prod[order]
    first = np.flatnonzero(np.r_[True, (m[1:] != m[:-1]) | (psi[1:] != psi[:-1])])
    d = np.add.reduceat(prod, first)
    m, psi = m[first], psi[first]
    z = d * np.exp(-1j * (horizon / lam2) * psi)
    # one zero-padded row of (D, z) per m
    starts = np.flatnonzero(np.r_[True, m[1:] != m[:-1]])
    sizes = np.diff(np.r_[starts, m.size])
    row = np.repeat(np.arange(sizes.size), sizes)
    col = np.arange(m.size) - np.repeat(starts, sizes)
    psi_rows = np.zeros((sizes.size, sizes.max()), dtype=np.int64)
    psi_rows[row, col] = psi
    re = np.zeros(psi_rows.shape + (2,))
    im = np.zeros(psi_rows.shape + (2,))
    re[row, col, 0], im[row, col, 0] = d.real, d.imag
    re[row, col, 1], im[row, col, 1] = z.real, z.imag
    # kernel (D inv D* - z inv z*) / i with inv = 1 / Omega off resonance;
    # inv is real antisymmetric, so W inv W* = 2i Im(W)^T inv Re(W)
    omega = psi_rows[:, :, None] - psi_rows[:, None, :]
    inv = np.divide(lam2, omega, out=np.zeros(omega.shape), where=omega != 0)
    forms = np.sum(im * (inv @ re), axis=1)
    per_m = 2.0 * (forms[:, 0] - forms[:, 1])
    # the resonant part: distinct keys within one m, so only the diagonal
    per_m += horizon * np.bincount(row, weights=d.real ** 2 + d.imag ** 2)
    if real_rows:  # S_{-m} = conj(S_m): m > 0 stands for both
        per_m[m[starts] > 0] *= 2.0
    return float(np.sum(per_m))


def _resonance_integral(f: SpectralField, horizon: float, kind: str) -> float:
    """integral_0^T ||V(t) f||_{L^4}^4 dt by the resonance sum, chunked over m."""
    modes, coeffs, keys = _wave_modes(f, kind)
    if modes.size == 0:
        return 0.0
    real_rows = f.is_real and kind == "bo_group"
    lam2 = f.grid.lam ** 2
    # no m has more than (size + 1) // 2 unordered pairs
    width = max(1, _EXACT_ENTRIES // ((modes.size + 1) // 2) ** 2)
    m_first = 0 if real_rows else 2 * int(modes[0])
    total = 0.0
    for m_lo in range(m_first, 2 * int(modes[-1]) + 1, width):
        total += _resonance_chunk(modes, coeffs, keys, m_lo, m_lo + width,
                                  horizon, lam2, real_rows)
    return f.grid.circumference * total


def strichartz_norm(f: SpectralField, horizon: float, kind: str = "bo_group") -> float:
    """Mixed norm (integral_0^T ||V(t) f||_{L^4}^4 dt)^(1/4).

    Evaluated exactly by the resonance sum (module docstring), with the
    same Nyquist convention as the padded transforms.
    """
    if not horizon > 0:
        raise ValueError(f"time horizon must be positive, got {horizon!r}")
    return float(_resonance_integral(f, horizon, kind) ** 0.25)
