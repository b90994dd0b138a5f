"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's padded-transform path:
coefficients come from direct O(N^2) summation, physical values from
explicit exponential sums, and integrals from dense rectangle rules at
2^16 points, so agreement with the library is evidence rather than
tautology.
"""

import copy

import numpy as np
import pytest

from bosp import (BlowUpError, PeriodicGrid, SpectralField, Trajectory, differentiate, norm,
                  random_field, spectral)
from bosp.evolve import _BLOWUP_GUARD, _etdrk4_weights
from bosp.lingroup import GROUP_KINDS, group_symbol
from bosp.spectral import (_alias_free_points, _complex_values, _nyquist_split, _real_values,
                           _row_chunks)

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


def symmetry_defect(coeffs):
    """Max deviation of a coefficient array from conjugate symmetry.

    max |C_{-m} - conj(C_m)| together with |Im C_{n/2}|, scaled by the
    largest coefficient magnitude (absolute when everything is tiny): how
    far from real a field is, where ``SpectralField.is_real`` only decides.
    """
    c = np.asarray(coeffs)
    rev = np.conj(np.roll(c[::-1], 1))  # slot m -> conj(slot -m)
    defect = max(float(np.max(np.abs(c - rev))), abs(float(c[c.size // 2].imag)))
    scale = float(np.max(np.abs(c)))
    return defect / scale if scale > 1e-300 else defect


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


# --- the resonance sum, one field at a time (reference of the stacked form) ---

_REFERENCE_ENTRIES = 1 << 18  # bounds the padded (m, psi, psi') kernel of one chunk


def _wave_modes(f, kind):
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


def _resonance_chunk(modes, coeffs, keys, m_lo, m_hi, horizon, lam2, real_rows):
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


def _resonance_integral(f, horizon, kind):
    """integral_0^T ||V(t) f||_{L^4}^4 dt by the resonance sum, chunked over m."""
    modes, coeffs, keys = _wave_modes(f, kind)
    if modes.size == 0:
        return 0.0
    real_rows = f.is_real and kind == "bo_group"
    lam2 = f.grid.lam ** 2
    # no m has more than (size + 1) // 2 unordered pairs
    width = max(1, _REFERENCE_ENTRIES // ((modes.size + 1) // 2) ** 2)
    m_first = 0 if real_rows else 2 * int(modes[0])
    total = 0.0
    for m_lo in range(m_first, 2 * int(modes[-1]) + 1, width):
        total += _resonance_chunk(modes, coeffs, keys, m_lo, m_lo + width,
                                  horizon, lam2, real_rows)
    return f.grid.circumference * total


def strichartz_norm_reference(f, horizon, kind="bo_group"):
    """The exact mixed norm of one field, with its own pairs, keys and kernel.

    The per-field resonance sum that ``strichartz_norms`` replaced by one
    structure per m-chunk shared across a stack of rows.
    """
    return float(_resonance_integral(f, horizon, kind) ** 0.25)


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


# --- the invariants' quadratures, u and H u_x apart (reference of the paired synthesis) ---


def functional_reference(grid, half, name, k=1, sign=1.0):
    """F_bo or E_gbo of the half-spectrum stack ``half`` (S, n/2+1), as
    (values, scale).

    The stacked quadrature with u and H u_x each synthesized by its own
    padded ``numpy.fft.irfft`` on the alias-free grid of degree
    max(4, k + 2), the slot n/2 split half-half, and u^p by repeated
    squaring.  ``scale`` is the sum of the magnitudes of the functional's
    terms, the size its round-off is measured against.
    """
    n, circ, h = grid.n, grid.circumference, grid.n // 2 + 1
    q = np.abs(grid.freqs[:h])
    weights = np.full(h, 2.0)
    weights[[0, -1]] = 1.0
    nbig = _alias_free_points(n, max(4, k + 2))
    split = np.ones(h)
    split[-1] = 0.5
    u = np.fft.irfft(split * half, nbig, norm="forward")
    abs2 = np.abs(half) ** 2
    if name == "F_bo":
        hux = np.fft.irfft(split * (np.where(np.arange(h) == n // 2, 0.0, q) * half), nbig,
                           norm="forward")
        terms = (circ * np.sum(weights * q ** 2 * abs2, axis=-1),
                 -sign * 0.75 * (circ * np.mean(u * u * hux, axis=-1)),
                 0.125 * (circ * np.mean(_power_reference(u, 4), axis=-1)))
        value = terms[0] + terms[1] + terms[2]
    else:
        terms = (circ * np.sum(0.5 * weights * q * abs2, axis=-1),
                 -sign * (circ * np.mean(_power_reference(u, k + 2), axis=-1)
                          / ((k + 1) * (k + 2))))
        value = terms[0] + terms[1]
    return value, sum(np.abs(term) for term in terms)


# --- random draws, one field at a time (reference of the stacked draw) ---


def random_field_reference(grid, rng, n_modes=None, decay=0.7, amplitude=1.0,
                           normalize="h1", mean=0.0, physical_decay=False):
    """One real random field from two ``standard_normal(n_modes)`` draws.

    The per-field draw that ``random_fields`` replaced by one draw and one
    norm over a stack; every field operation here is a SpectralField's own.
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
    f = SpectralField(grid, coeffs)
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
        f = SpectralField(grid, c)
    return f


# --- the allocating stepper, one new array per operation (reference of the in-place one) ---


def _power_reference(values, p):
    """values ** p by repeated squaring, every product a new array."""
    out, base = None, values
    while True:
        if p & 1:
            out = base if out is None else out * base
        p >>= 1
        if not p:
            return out
        base = base * base


# mu of each equation's flux; the linear equation is the mu = 0 member
FLUX_MU = {"linear": 0.0, "gbo": 1.0, "bo2": 2.0, "renormalized_gbo": 2.0}


def nonlinear_reference(equation, uhat):
    """The dealiased flux of ``equation`` on the half-spectrum stack uhat, allocating.

    The padded transforms are spelled out: the slot n/2 is split half-half
    before synthesis and -n/2 folded back into +n/2 after analysis.  The
    flux is ``(iq mu / (k + 1)) (u^{k+1} - (k + 1) mean(u^k) u)``, mu 0 for
    the linear equation, 1 for gbo and 2 for bo2 and the renormalized
    equation, whose mean term alone it has.
    """
    eq, k, n, nbig = equation.eq, equation.k, equation.n, equation.nbig
    half = uhat
    if nbig > n:
        split = np.ones(n // 2 + 1)
        split[n // 2] = 0.5
        half = half * split
    vals = np.fft.irfft(half, nbig, norm="forward")
    flux = np.fft.rfft(_power_reference(vals, 2 if eq == "bo2" else k + 1),
                       norm="forward")[..., : n // 2 + 1]
    if nbig > n:
        if flux.ndim == 1:
            z = flux.item(n // 2)
            flux[n // 2] = z + z.conjugate()
        else:
            flux[..., n // 2] = 2.0 * flux[..., n // 2].real
    if equation.cut is not None:
        flux[..., equation.cut:] = 0.0
    if eq == "renormalized_gbo":
        mean = np.mean(_power_reference(vals, k), axis=-1, keepdims=True)
        flux = flux - (k + 1) * mean * uhat
    return (equation.iq * FLUX_MU[eq] / (k + 1)) * flux


def _dispatching_power(values, p, work):
    """values ** p (p >= 1) by repeated squaring into the pair ``work``, slot by slot."""
    if p == 1:
        np.copyto(work[0], values)
        return work[0]
    slots = [values, *work]
    acc, base = None, 0
    while True:
        if p & 1:
            if acc is None:
                acc = base
            else:
                dest = acc or 3 - base
                slots[dest] = np.multiply(slots[acc], slots[base], out=slots[dest])
                acc = dest
        p >>= 1
        if not p:
            return slots[acc]
        dest = base if base and base != acc else (2 if acc == 1 else 1)
        slots[dest] = np.multiply(slots[base], slots[base], out=slots[dest])
        base = dest


def dispatching_flux(equation, uhat, out):
    """The in-place flux as it was before ``Equation`` built it once: every call
    dispatches on the equation and goes through the generic real kernels,
    the Nyquist split and fold spelled out, with the transforms of the set
    ``spectral._FFTS`` of the moment, and the flux constant of
    ``nonlinear_reference`` formed per call.  ``Equation._flux`` must equal
    it bit for bit."""
    eq, k, n, nbig = equation.eq, equation.k, equation.n, equation.nbig
    lead = uhat.shape[:-1]
    vals, split = np.empty(lead + (nbig,)), np.empty(lead + (n // 2 + 1,), dtype=complex)
    pair = (np.empty(lead + (nbig,)), np.empty(lead + (nbig,)))
    spec = np.empty(lead + (nbig // 2 + 1,), dtype=complex)
    half = np.multiply(uhat, _nyquist_split(n), out=split) if nbig > n else uhat
    vals = spectral._FFTS.irfft(half, vals)
    powered = _dispatching_power(vals, 2 if eq == "bo2" else k + 1, pair)
    flux = spectral._FFTS.sized_rfft(nbig)(powered, spec)[..., : n // 2 + 1]
    if nbig > n:
        if flux.ndim == 1:
            z = flux.item(n // 2)
            flux[n // 2] = z + z.conjugate()
        else:
            flux[..., n // 2] = 2.0 * flux[..., n // 2].real
    if equation.cut is not None:
        flux[..., equation.cut:] = 0.0
    if eq == "renormalized_gbo":
        mean = np.mean(_dispatching_power(vals, k, pair), axis=-1, keepdims=True)
        np.subtract(flux, np.multiply((k + 1) * mean, uhat, out=out), out=flux)
    return np.multiply(equation.iq * FLUX_MU[eq] / (k + 1), flux, out=out)


def flux_on(equation, nbig):
    """A copy of ``equation`` whose flux is formed on ``nbig`` points.

    A flux is exact on any grid at or above its alias-free size (Orszag
    1971; Boyd 2001, sec. 11.5), so rows of every degree up to ``k`` step
    exactly on the ``nbig`` of ``k``; a smaller ``nbig`` aliases the larger
    degrees' fluxes.
    """
    moved = copy.copy(equation)
    moved.nbig = nbig
    moved._flux = moved._build_flux()
    return moved


@np.errstate(over="ignore", invalid="ignore")
def advance_reference(u0s, cfg, equation):
    """One stack of fields stepped with a new array for every operation.

    The stepping loop as it was before the stage arrays were preallocated;
    ``evolve._advance`` must reproduce it bit for bit, blow-ups included.
    """
    grid, n, dt = equation.grid, equation.n, cfg.dt
    steps, stride = cfg.n_steps(), cfg.sample_stride
    nonlin, group_sym = (lambda u: nonlinear_reference(equation, u)), equation.symbol
    ehalf = np.exp(group_sym * (dt / 2.0))
    efull = ehalf * ehalf
    q2, f1, f2, f3 = _etdrk4_weights(group_sym * dt, dt)
    uhat = np.array([u0.coeffs[: n // 2 + 1] for u0 in u0s])
    if len(u0s) == 1:
        uhat = uhat[0]
    uhat[..., 0] = uhat[..., 0].real
    uhat[..., n // 2] = uhat[..., n // 2].real
    rows = list(range(len(u0s)))
    results = [None] * len(u0s)
    times = dt * np.arange(0, steps + 1, stride)
    history = np.empty((len(u0s), len(times), n // 2 + 1), dtype=np.complex128)
    history[:, 0] = uhat
    t_good = 0.0
    for step in range(1, steps + 1):
        if cfg.scheme == "if_rk4":
            a = nonlin(uhat)
            ua = ehalf * (uhat + (dt / 2.0) * a)
            b = nonlin(ua)
            ub = ehalf * uhat + (dt / 2.0) * b
            c = nonlin(ub)
            uc = efull * uhat + dt * ehalf * c
            d = nonlin(uc)
            uhat = efull * uhat + (dt / 6.0) * (efull * a + 2.0 * ehalf * (b + c) + d)
        else:
            n0 = nonlin(uhat)
            sa = ehalf * uhat + q2 * n0
            na = nonlin(sa)
            sb = ehalf * uhat + q2 * na
            nb = nonlin(sb)
            sc = ehalf * sa + q2 * (2.0 * nb - n0)
            nc = nonlin(sc)
            uhat = efull * uhat + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
        if not np.max(np.abs(uhat)) <= _BLOWUP_GUARD:
            good = np.atleast_1d(np.max(np.abs(uhat), axis=-1) <= _BLOWUP_GUARD)
            for row in np.flatnonzero(~good):
                results[rows[row]] = BlowUpError(t_good)
            if not good.any():
                return results
            uhat = uhat[good]
            rows = [r for r, ok in zip(rows, good) if ok]
        t_good = step * dt
        if step % stride == 0:
            history[rows, step // stride] = uhat
    for r in rows:
        results[r] = Trajectory(grid, times, history[r], cfg.equation, cfg.k)
    return results


def solve_batch_reference(u0s, cfg, equation):
    """``advance_reference`` over the stacks ``solve_batch`` steps."""
    return [result for rows in _row_chunks(len(u0s), equation.nbig)
            for result in advance_reference(u0s[rows], cfg, equation)]


def count_transforms(monkeypatch):
    """Record every transform the spectral kernels make, as (name, leading
    shape, points), by wrapping ``spectral._FFTS``; points is the transform
    size (the output's for ``irfft``).  ``sized_rfft`` is wrapped to return
    a counting ``rfft``, so kernels bound after this call are counted."""
    calls = []

    def counting(name, fn):
        def wrapped(a, out):
            calls.append((name, a.shape[:-1], (out if name == "irfft" else a).shape[-1]))
            return fn(a, out)
        return wrapped

    ffts = spectral._FFTS
    monkeypatch.setattr(spectral, "_FFTS", spectral._Transforms(
        sized_rfft=lambda nbig: counting("rfft", ffts.sized_rfft(nbig)),
        **{name: counting(name, getattr(ffts, name)) for name in ("irfft", "fft", "ifft")}))
    return calls


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
