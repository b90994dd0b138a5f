"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's padded-transform path:
coefficients come from direct O(N^2) summation, physical values from
explicit exponential sums, and integrals from dense rectangle rules at
2^16 points, so agreement with the library is evidence rather than
tautology.
"""

import numpy as np
import pytest

from bosp import PeriodicGrid, differentiate, norm, random_field
from bosp.lingroup import group_symbol
from bosp.spectral import _complex_values, _real_values

DENSE = 1 << 16


def dft_direct(samples, lam):
    """O(N^2) direct evaluation of C_q = mean(f * exp(-i q x))."""
    samples = np.asarray(samples)
    n = samples.size
    x = 2 * np.pi * lam * np.arange(n) / n
    grid = PeriodicGrid(lam, n)
    q = grid.freqs
    return np.array([np.mean(samples * np.exp(-1j * qq * x)) for qq in q])


def dense_points(grid, n_pts=DENSE):
    return grid.circumference * np.arange(n_pts) / n_pts


def dense_values(field, xs=None):
    """Direct exponential-sum evaluation of a field on a dense grid."""
    grid = field.grid
    if xs is None:
        xs = dense_points(grid)
    vals = np.zeros(xs.size, dtype=complex)
    for m, c in zip(grid.modes, field.coeffs):
        if c != 0:
            vals += c * np.exp(1j * (m / grid.lam) * xs)
    return vals


def dense_lp(field, p, n_pts=DENSE):
    """Rectangle-rule L^p norm on the dense grid."""
    vals = dense_values(field, dense_points(field.grid, n_pts))
    w = field.grid.circumference / n_pts
    return (w * np.sum(np.abs(vals) ** p)) ** (1.0 / p)


def dense_integral(values, grid, n_pts=DENSE):
    return grid.circumference * np.mean(values)


def dense_analyze(values, grid):
    """Dense-grid values -> first n coefficients, via a 2^16-point transform."""
    n_pts = values.size
    coeffs_full = np.fft.fft(values) / n_pts
    out = np.zeros(grid.n, dtype=complex)
    half = grid.n // 2
    out[: half + 1] = coeffs_full[: half + 1]
    out[half + 1:] = coeffs_full[n_pts - (half - 1):]
    return out


def coeff_distance(f, g):
    return float(np.max(np.abs(f.coeffs - g.coeffs)))


# --- dense-grid operator pipeline (oracle for the gauge right-hand sides) ---


def dense_freqs(n_pts, lam):
    m = np.fft.fftfreq(n_pts, 1.0 / n_pts)
    return m / lam


def dense_ddx(values, lam):
    q = dense_freqs(values.size, lam)
    return np.fft.ifft(1j * q * np.fft.fft(values))


def dense_project(values, lam, kind):
    q = dense_freqs(values.size, lam)
    if kind == "plus":
        mask = q > 0
    elif kind == "minus":
        mask = q < 0
    else:
        raise ValueError(kind)
    return np.fft.ifft(np.where(mask, np.fft.fft(values), 0.0))


def dense_antiderivative(values, lam):
    q = dense_freqs(values.size, lam)
    hat = np.fft.fft(values)
    hat[0] = 0.0
    out = np.zeros_like(hat)
    nz = q != 0
    out[nz] = hat[nz] / (1j * q[nz])
    return np.fft.ifft(out)


def dense_hilbert(values, lam):
    q = dense_freqs(values.size, lam)
    return np.fft.ifft(-1j * np.sign(q) * np.fft.fft(values))


# --- composite trapezoid rule in time (cross-check of the exact L^4 norm) ---

QUAD_PAD = 4
_QUAD_ROWS = 2048  # bounds the transient padded-transform buffer


def l4_sums(rows, grid, real_rows):
    """Quadrature sums w * sum |v|^4 (= ||v||_L4^4) of many coefficient rows, 4x padded."""
    n, nbig = grid.n, QUAD_PAD * grid.n
    w = grid.circumference / nbig
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _QUAD_ROWS):
        block = rows[start: start + _QUAD_ROWS]
        if real_rows:
            vals = _real_values(block[:, : n // 2 + 1], nbig)
        else:
            vals = _complex_values(block, nbig)
        out[start: start + _QUAD_ROWS] = w * np.sum(np.abs(vals) ** 4, axis=1)
    return out


def trapezoid_strichartz_norm(f, horizon, n_t, kind="bo_group"):
    """(integral_0^T ||V(t) f||_L4^4 dt)^(1/4) by the trapezoid rule on n_t subintervals.

    The independent cross-check of the exact ``strichartz_norm``: one
    composite rule in time over 4x padded values, error falling as n_t^-2.
    """
    times = np.linspace(0.0, horizon, n_t + 1)
    rows = np.exp(np.outer(times, group_symbol(f.grid, kind))) * f.coeffs[None, :]
    integrand = l4_sums(rows, f.grid, f.is_real and kind == "bo_group")
    return float(np.trapezoid(integrand, dx=horizon / n_t) ** 0.25)


# --- mixed space-time norm, one field at a time (reference of the stacked form) ---


def xnorm_series_per_field(times, fields, level):
    """sum_j<=level sup_t ||d^j f||_L2 + (trapezoid integral of ||d^j f||_L4^4)^(1/4).

    The per-field loop that ``xnorm_series`` replaced by one reduction of a
    coefficient stack: each SpectralField is differentiated and normed alone.
    """
    times = np.asarray(times, dtype=float)
    total = 0.0
    for j in range(level + 1):
        derivs = [differentiate(f, "d_dx", j) if j else f for f in fields]
        l2s = np.array([norm(f, "lp", p=2) for f in derivs])
        l4s = np.array([norm(f, "lp", p=4) for f in derivs])
        total += float(np.max(l2s))
        total += float(np.trapezoid(l4s ** 4, times) ** 0.25)
    return total


@pytest.fixture
def grid():
    return PeriodicGrid(1.0, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def random_fields(grid, rng):
    def make(count=1, **kw):
        kw.setdefault("n_modes", 16)
        fields = [random_field(grid, rng, **kw) for _ in range(count)]
        return fields[0] if count == 1 else fields
    return make
