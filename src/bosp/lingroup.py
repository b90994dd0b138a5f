"""Free propagators of the linear problems, as unimodular multipliers.

``bo_group`` evolves u_t + H u_xx = 0: the symbol of H d_xx is i*q|q|, so
the propagator multiplies mode q by exp(-i*q|q|*t).  ``schrodinger_group``
evolves w_t = i w_xx, multiplier exp(-i*q^2*t).  Both satisfy the exact
group law and are unitary on every H^s.

The mixed space-time L^4 norm of a free wave, (integral_0^T ||u(t)||_L4^4
dt)^(1/4), is evaluated by composite trapezoid quadrature in time, either on
a given number of subintervals or by doubling them (no extrapolation) until
two refinements agree.
"""

from __future__ import annotations

import numpy as np

from .spectral import PeriodicGrid, SpectralField, _complex_values, _real_values

__all__ = ["GROUP_KINDS", "group_symbol", "propagate", "strichartz_norm"]

GROUP_KINDS = ("bo_group", "schrodinger_group")

_QUAD_PAD = 4
_QUAD_REL_TOL = 1e-6
_QUAD_START = 256
_QUAD_MAX = 1 << 14


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


_BATCH_ROWS = 2048  # bounds the transient padded-transform buffer


def _l4_sums_batch(coeffs_rows: np.ndarray, grid: PeriodicGrid, real_rows: bool) -> np.ndarray:
    """Quadrature sums w * sum |v|^4 (= ||v||_L4^4) of many rows (4x padded)."""
    n = grid.n
    nbig = _QUAD_PAD * n
    w = grid.circumference / nbig
    out = np.empty(coeffs_rows.shape[0])
    for start in range(0, coeffs_rows.shape[0], _BATCH_ROWS):
        block = coeffs_rows[start: start + _BATCH_ROWS]
        if real_rows:
            vals = _real_values(block[:, : n // 2 + 1], nbig)
        else:
            vals = _complex_values(block, nbig)
        out[start: start + _BATCH_ROWS] = w * np.sum(np.abs(vals) ** 4, axis=1)
    return out


def _time_integrand(f: SpectralField, times: np.ndarray, kind: str) -> np.ndarray:
    """||V(t) f||_{L^4}^4 at the given times."""
    sym = group_symbol(f.grid, kind)
    rows = np.exp(np.outer(times, sym)) * f.coeffs[None, :]
    real_rows = f.is_real and kind == "bo_group"
    return _l4_sums_batch(rows, f.grid, real_rows)


def strichartz_norm(f: SpectralField, horizon: float, n_t: int | None = None,
                    kind: str = "bo_group") -> float:
    """Mixed norm (integral_0^T ||V(t) f||_{L^4}^4 dt)^(1/4).

    With ``n_t`` given, one composite trapezoid rule on n_t subintervals
    (n_t >= 16).  Otherwise the rule starts at 256 subintervals and doubles
    until two refinements agree to 1e-6 relative (capped at 2^14); each
    level evaluates all of its points afresh, none are reused.
    """
    if not horizon > 0:
        raise ValueError(f"time horizon must be positive, got {horizon!r}")

    def trapz_value(m: int) -> float:
        times = np.linspace(0.0, horizon, m + 1)
        g = _time_integrand(f, times, kind)
        integral = np.trapezoid(g, dx=horizon / m)
        return float(integral ** 0.25)

    if n_t is not None:
        if n_t < 16:
            raise ValueError(f"n_t must be at least 16, got {n_t}")
        return trapz_value(int(n_t))

    m = _QUAD_START
    prev = trapz_value(m)
    while m < _QUAD_MAX:
        m *= 2
        cur = trapz_value(m)
        if abs(cur - prev) <= _QUAD_REL_TOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev
