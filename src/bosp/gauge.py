"""Gauge transform of the circle equations and its derived identities.

Setup.  For a real zero-mean solution u of

    u_t + H u_xx = 2 u u_x                                   (variant "bo")

let F be the zero-mean primitive of u and define the filtered variable

    w = -i P_+(e^{-iF} u)  ( = d_x P_+(e^{-iF}) ).

Then w solves the Schroedinger-type equation

    w_t - i w_xx = -2 d_x P_+( P_-(u_x) e^{-iF} ) + P_0(u^2) P_+(u e^{-iF}).

For a real zero-mean solution v of the renormalized equation

    v_t + H v_xx = 2 M(v^k) v_x,   M(g) = g - mean(g),       (variant "gbo")

let F be the zero-mean primitive of M(v^k) and w = P_+(e^{-iF} v).  Then

    w_t - i w_xx = a + b + c + d,
    a =  i P_0(M(v^k)^2) P_+(e^{-iF} v),
    b = -2i P_+(e^{-iF} P_-(v_xx)),
    c = -2k P_+(e^{-iF} v M(v^{k-1} P_-(v_x))),
    d = -i k(k-1) P_+(e^{-iF} v h),   h = antiderivative of M(v^{k-2} v_x H v_x).

At k = 1 on zero-mean data M(v) = v, the two equations and the two phases
agree, and every bo quantity is -i times the gbo one: w, the right-hand
side (the b and c terms collapse into the derivative term via
d_x P_+(e^{-iF} P_-(u_x)) = P_+(e^{-iF} P_-(u_xx)) - i P_+(u e^{-iF}
P_-(u_x)), and the a term is the mean term) and the residual.  So the code
has one set of formulas: a frame computes the gbo quantities of its degree
k, bo as k = 1, and multiplies them by -i for bo.

``gauge_residual`` turns these identities into numbers: on a field it
substitutes the evolution equation for the time derivative (no time
stepping at all), on a trajectory it uses fourth-order centered differences
on uniformly sampled snapshots.  The instantaneous residual takes the
linear part of v_t from ``evolve.Equation`` and keeps the nonlinear term in
the non-conservative form 2 M(v^k) v_x, which keeps the folded n/2 value
the solver's conservative flux zeroes, because the identity needs that
slot at finite n.  ``pde_residual`` substitutes ``Equation`` unchanged.

Every product is formed pointwise on the frame grid of ``_frame_points(n,
k)`` points, ``spectral._alias_free_points`` of degree max(k + 3, 2k) (bo
counts as k = 1), and truncated back.  Two terms set the size: p0_m2 =
P_0(M(v^k)^2) is the mean of a degree-2k product, and the widest e^{-iF}
product is the c term, whose pointwise factor v M(v^{k-1} P_-(v_x)) has
degree k + 1, with e^{-iF} counted as one more n-mode factor and the
result truncated to n modes (one degree more again).  Counting e^{-iF} as
band-limited at n/2 holds for the data the experiments draw: on a 16n
grid its L^2 tail beyond |m| > n/2 was at most 1.9e-16 for H^2-normalized
fields of amplitude 0.1 and decay 0.8 at k = 3 (200 fields, n = 256), and
at most 9.6e-14 at k = 1 with decay 0.95.  So the only error left is the
spectral tail of the data and of e^{-iF}.  A private frame computes the
gauge data of a (B, n) stack of coefficient rows of real fields on one
grid, each piece at most once: the values of v, v_x and M(v^k) on the
frame grid, the phase F, e^{-iF} and P_+(e^{-iF} v).  The right-hand side
and the residual act on the frame's arrays with the multipliers
``spectral._symbol`` caches per grid, and rows never mix.  The right-hand
side is the a term plus P_+ of e^{-iF} times the pointwise factors of b, c
and d: ``rhs_gbo_terms`` projects each factor on its own (the bo
right-hand side is -i times its k = 1 terms), and the one residual
function projects their sum, less the e^{iF} d_t(e^{-iF} v) of w_t on a
field, once.
``_frames`` is the one path from input to frames: it takes a list of
fields or a trajectory's snapshots, checks them with the rules of
``spectral``, each said once there (fields on one grid, real fields tested
on the stack, a (variant, k) pair that names a gauge, and zero mean where
the phase or a right-hand side needs it), builds one frame per stack of at
most ``spectral._STACK_POINTS`` frame-grid points, and joins the rows each
caller reads off the frames, under ``spectral._refusing_overflow``, the
one overflow rule.  ``build_gauge``, ``rhs_gbo_terms``,
``gauge_lipschitz_gap``, ``gauge_residual_batch`` (and through it the
instantaneous ``gauge_residual``), the trajectory residual and the
estimate monitor's w series all go through it.  ``reconstruct_u``
builds no frame but checks its v with the same rules and works on the bo
frame grid.
The mean-removal and renormalization maps translate a whole trajectory
stack by the odd generator iq (``spectral._symbol`` "d_dx" on modes
0..n/2), which is zero on the slot n/2 and so leaves that slot unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .evolve import Equation
from .spectral import (
    PeriodicGrid,
    SpectralField,
    Trajectory,
    _alias_free_points,
    _check_gauge_variant,
    _check_one_grid,
    _check_real,
    _check_zero_mean,
    _complex_coeffs,
    _complex_values,
    _full_spectrum,
    _parseval_norms,
    _power,
    _primitive,
    _real_rows,
    _real_values,
    _refusing_overflow,
    _row_chunks,
    _symbol,
    norm,
)

__all__ = [
    "GaugeState",
    "build_gauge",
    "GboTerms",
    "rhs_gbo_terms",
    "ResidualNorms",
    "gauge_residual",
    "gauge_residual_batch",
    "reconstruct_u",
    "LipschitzGap",
    "gauge_lipschitz_gap",
    "remove_mean_bo",
    "renormalize_gbo",
    "pde_residual",
]


def _frame_points(n: int, k: int) -> int:
    """Points of the frame grid of n-mode fields and degree k (bo counts as k = 1).

    The alias-free size of degree max(k + 3, 2k): the mean p0_m2 of the
    degree-2k product M(v^k)^2, and the c term, a degree k + 1 factor times
    e^{-iF} truncated to n modes (see the module docstring).
    """
    return _alias_free_points(n, max(k + 3, 2 * k))


def _real_vals(coeffs: np.ndarray, points: int) -> np.ndarray:
    """Values on ``points`` points of real fields given as coefficient rows (..., n)."""
    n = coeffs.shape[-1]
    return _real_values(coeffs[..., : n // 2 + 1], points)


def _minus_vals(coeffs: np.ndarray, grid: PeriodicGrid, points: int) -> np.ndarray:
    """Values on ``points`` points of P_- of coefficient rows (..., n)."""
    return _complex_values(np.where(_symbol(grid, "minus"), coeffs, 0.0), points)


def _plus(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Coefficient rows (..., n) of P_+ of complex values (..., N), N >= n: the frame grid's."""
    return np.where(_symbol(grid, "plus"), _complex_coeffs(values, grid.n), 0.0)


def _phase_factor(F_vals: np.ndarray) -> np.ndarray:
    """e^{-iF} of real values, written as cos F and -sin F into one complex array.

    Bit-identical to ``np.exp(-1j * F_vals)`` with numpy 2.4 on x86-64, in
    less than half the time (0.26 against 0.58 ms on a 16 x 1024 stack,
    one Xeon core).
    """
    E = np.empty(F_vals.shape, dtype=np.complex128)
    np.cos(F_vals, out=E.real)
    np.sin(F_vals, out=E.imag)
    np.negative(E.imag, out=E.imag)
    return E


@dataclass(frozen=True)
class GaugeState:
    """The triple (F, W, w) of the gauge transform at one time.

    F is the real zero-mean phase, W = P_+(e^{-iF}), and w is the filtered
    variable: -i P_+(e^{-iF} v) for ``bo``, P_+(e^{-iF} v) for ``gbo``.
    """

    F: SpectralField
    W: SpectralField
    w: SpectralField
    variant: str
    k: int = 1


class _Frame:
    """The gauge data of a (B, n) stack of real fields, each piece computed at most once.

    ``coeffs`` holds the rows checked by ``_frames`` and ``points`` the size
    ``_frame_points(n, k)`` of the frame grid; the frame holds the gbo data
    of degree k, bo as k = 1.  ``v_vals``, ``vx_vals``, ``vk_vals`` and
    ``mvk_vals`` are the (B, points) values of v, v_x, v^k and M(v^k),
    ``p0_m2`` the (B, 1) column P_0(M(v^k)^2), ``F`` the rows of the
    primitive of M(v^k) (at k = 1 of v's own rows, no transform), ``E`` the
    values of e^{-iF}, ``plus_Ev`` the rows of P_+(e^{-iF} v) and ``w``
    those of the filtered variable.  All but ``F`` and ``E`` are computed on
    first use: ``gauge_lipschitz_gap`` reads ``E``.
    """

    def __init__(self, coeffs: np.ndarray, grid: PeriodicGrid, variant: str, k: int):
        self.coeffs, self.grid, self.variant, self.k = coeffs, grid, variant, k
        self.points = _frame_points(grid.n, k)
        self.F = _primitive(coeffs if k == 1 else _real_rows(self.vk_vals, grid.n), grid)
        self.E = _phase_factor(_real_vals(self.F, self.points))

    @functools.cached_property
    def v_vals(self) -> np.ndarray:
        return _real_vals(self.coeffs, self.points)

    @functools.cached_property
    def vx_vals(self) -> np.ndarray:
        return _real_vals(_symbol(self.grid, "d_dx") * self.coeffs, self.points)

    @functools.cached_property
    def vk_vals(self) -> np.ndarray:
        return _power(self.v_vals, self.k)

    @functools.cached_property
    def mvk_vals(self) -> np.ndarray:
        return self.vk_vals - np.mean(self.vk_vals, axis=-1, keepdims=True)

    @functools.cached_property
    def p0_m2(self) -> np.ndarray:
        return np.mean(self.mvk_vals ** 2, axis=-1, keepdims=True)

    @functools.cached_property
    def plus_Ev(self) -> np.ndarray:
        return _plus(self.E * self.v_vals, self.grid)

    @functools.cached_property
    def w(self) -> np.ndarray:
        return self.of_variant(self.plus_Ev)

    def of_variant(self, rows: np.ndarray) -> np.ndarray:
        """The variant's rows of a gbo quantity: -i times them for bo, themselves for gbo."""
        return (-1j) * rows if self.variant == "bo" else rows


def _frames(fields, variant: str, k, parts, zero_mean: bool = True) -> tuple:
    """The (B, n) stacks of the rows ``parts(frame)`` reads off the frames of ``fields``.

    ``fields`` is a non-empty list of fields or a ``Trajectory``, whose
    snapshots are the fields.  Every row is checked before any frame is
    built, by the rules of ``spectral`` in turn: one grid, real fields, a
    (variant, k) pair that names a gauge (bo with k = 1, gbo with an
    integer k >= 1), and zero mean, which the bo gauge and the right-hand
    side need.  One frame is built per stack of at most
    ``spectral._STACK_POINTS`` frame-grid points; rows never mix, so each
    row of a stack equals its stack of one up to round-off.
    """
    if isinstance(fields, Trajectory):
        grid, coeffs = fields.grid, _full_spectrum(fields.half_coeffs, fields.grid.n)
    else:
        grid = _check_one_grid(fields, "the gauge transform")
        coeffs = np.array([f.coeffs for f in fields])
    _check_real(coeffs, "the gauge transform")
    _check_gauge_variant(variant, k)
    if zero_mean or variant == "bo":
        _check_zero_mean(coeffs, f"the {variant} gauge")

    def stacks() -> tuple:
        chunks = [parts(_Frame(coeffs[rows], grid, variant, k))
                  for rows in _row_chunks(len(coeffs), _frame_points(grid.n, k))]
        return tuple(np.concatenate(stack) for stack in zip(*chunks))
    return _refusing_overflow(f"the {variant} gauge", coeffs, stacks)


def build_gauge(v: SpectralField, variant: str = "bo", k: int = 1) -> GaugeState:
    """Construct the gauge state of a real field.

    ``bo`` requires zero-mean input (the primitive must be periodic); the
    ``gbo`` phase uses M(v^k), which removes the mean itself.
    """
    rows = _frames([v], variant, k, lambda fr: (fr.F, _plus(fr.E, fr.grid), fr.w),
                   zero_mean=False)
    return GaugeState(*(SpectralField(v.grid, row[0]) for row in rows), variant, k)


@dataclass(frozen=True)
class GboTerms:
    """The four terms a, b, c, d of the gbo gauge equation."""

    a: SpectralField
    b: SpectralField
    c: SpectralField
    d: SpectralField

    @property
    def total(self) -> SpectralField:
        return self.a + self.b + self.c + self.d


def rhs_gbo_terms(v: SpectralField, k: int) -> GboTerms:
    """The a + b + c + d right-hand side for zero-mean real v; d = 0 at k = 1."""
    terms = _frames([v], "gbo", k, _rhs_gbo)
    return GboTerms(*(SpectralField(v.grid, term[0]) for term in terms))


def _rhs_gbo(fr: _Frame) -> tuple:
    """The rows of the a, b, c and d terms, each factor projected on its own."""
    a, factors = _gbo_factors(fr)
    b, c, *d = (_plus(fr.E * factor, fr.grid) for factor in factors)
    return a, b, c, d[0] if d else np.zeros_like(a)


def _gbo_factors(fr: _Frame) -> tuple:
    """The rows of the a term i p0_m2 P_+(e^{-iF} v), and the factors of the b,
    c and d terms.

    Each factor X is a (B, points) array of values on the frame grid whose
    P_+(e^{-iF} X) is its term; d has none at k = 1.
    """
    k, grid, points, v_vals = fr.k, fr.grid, fr.points, fr.v_vals
    vx = _symbol(grid, "d_dx") * fr.coeffs
    factors = [-2j * _minus_vals(_symbol(grid, "d_dx", 2) * fr.coeffs, grid, points)]
    g = _power(v_vals, k - 1) * _minus_vals(vx, grid, points)
    factors.append((-2.0 * k) * v_vals * (g - np.mean(g, axis=-1, keepdims=True)))
    if k >= 2:
        hvx_vals = _real_vals(_symbol(grid, "hilbert") * vx, points)
        base = _power(v_vals, k - 2) * fr.vx_vals * hvx_vals
        h = _primitive(_real_rows(base, grid.n), grid)
        factors.append((-1j * k * (k - 1)) * v_vals * _real_vals(h, points))
    return 1j * fr.p0_m2 * fr.plus_Ev, factors


def _residual(fr: _Frame, Ev_t=0.0) -> np.ndarray:
    """Rows of w_t - i w_xx - RHS: P_+(e^{-iF} (Ev_t - X_b - X_c - X_d)), one
    projection, less i w_xx and the a term; bo's rows are -i times gbo's.

    ``Ev_t`` is the values of e^{iF} d_t(e^{-iF} v) (the gbo w_t is P_+ of
    e^{-iF} times them): the trajectory residual passes none, and adds the
    rows to its stencil's w_t."""
    a, factors = _gbo_factors(fr)
    for factor in factors:
        Ev_t -= factor
    # Ev_t is named, not inline: numpy would multiply E into a large temporary
    # in place, with the complex operands swapped, which rounds differently.
    iwxx = 1j * (_symbol(fr.grid, "d_dx", 2) * fr.plus_Ev)
    return fr.of_variant(_plus(fr.E * Ev_t, fr.grid) - iwxx - a)


@dataclass(frozen=True)
class ResidualNorms:
    """L^2 and H^1 norms of a gauge-equation residual."""

    l2: float
    h1: float


def _instantaneous_Ev_t(fr: _Frame) -> np.ndarray:
    """Values of e^{iF} d_t(e^{-iF} v) on the frame grid, the evolution equation
    substituted for v_t: the gbo w_t is P_+ of e^{-iF} times them."""
    k, grid, points = fr.k, fr.grid, fr.points
    # non-conservative: keeps the folded n/2 value, which the identity needs
    vt = (Equation(grid, "linear").rhs(fr.coeffs[:, : grid.n // 2 + 1])
          + _real_rows(2.0 * fr.mvk_vals * fr.vx_vals, grid.n))
    vt_vals = _real_vals(vt, points)
    # F_t is the primitive of k v^{k-1} v_t; at k = 1 that is v_t, whose rows are at hand
    ft_rows = vt if k == 1 else _real_rows(k * _power(fr.v_vals, k - 1) * vt_vals, grid.n)
    Ft = _primitive(ft_rows, grid)
    return -1j * _real_vals(Ft, points) * fr.v_vals + vt_vals


_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def _stencil_residual(traj: Trajectory, series: np.ndarray, rest: np.ndarray,
                      who: str) -> ResidualNorms:
    """Norms of d/dt series + rest on the interior snapshots.

    ``series`` and ``rest`` are (S, n) stacks of coefficient rows, one row
    per snapshot; d/dt is the 4th-order centered stencil; ``who`` names
    norms that overflow a float.
    """
    S = len(traj)
    if S < 5:
        raise ValueError("need at least 5 uniformly spaced snapshots")

    def norms() -> np.ndarray:
        resid = sum(c * series[2 + off: S - 2 + off]
                    for off, c in zip((-2, -1, 0, 1, 2), _STENCIL)) / traj.sample_dt
        resid = resid + rest[2: S - 2]
        return np.array([np.max(_parseval_norms(resid, traj.grid)),
                         np.max(_parseval_norms(resid, traj.grid, 1.0))])
    return ResidualNorms(*_refusing_overflow(who, traj.half_coeffs, norms).tolist())


def gauge_residual_batch(fields, variant: str = "bo", k: int = 1) -> list:
    """Instantaneous gauge-equation residual norms of every field, stacked.

    Returns one ``ResidualNorms`` per field, in order.  The fields must be
    real, zero-mean and share one grid, all checked before any work.  They
    are evaluated in stacks of at most ``spectral._STACK_POINTS`` padded
    points; rows never mix, so a row's norms are those of a stack of one up
    to round-off in the pointwise products.
    """
    fields = list(fields)
    if not fields:
        return []
    l2, h1 = _frames(fields, variant, k, _residual_norms)
    return [ResidualNorms(l2=a, h1=b) for a, b in zip(l2.tolist(), h1.tolist())]


def _residual_norms(fr: _Frame) -> tuple:
    """Per-row L^2 and H^1 norms of the frame's instantaneous residual."""
    resid = _residual(fr, _instantaneous_Ev_t(fr))
    return _parseval_norms(resid, fr.grid), _parseval_norms(resid, fr.grid, 1.0)


def gauge_residual(target, variant: str = "bo", k: int = 1) -> ResidualNorms:
    """Residual of the derived gauge equation, ||w_t - i w_xx - RHS||.

    A SpectralField gives the instantaneous residual: the evolution equation
    stands in for the time derivative, and the residual must vanish to
    spectral accuracy (the one-field case of ``gauge_residual_batch``).  A
    uniformly sampled Trajectory (>= 5 snapshots) gives the trajectory
    residual: w is differentiated in time with a fourth-order centered
    stencil, so the residual decays like the fourth power of the sampling
    interval.  Anything else is a TypeError.
    """
    if isinstance(target, SpectralField):
        return gauge_residual_batch([target], variant, k)[0]
    if isinstance(target, Trajectory):
        w, rest = _frames(target, variant, k, lambda fr: (fr.w, _residual(fr)))
        return _stencil_residual(target, w, rest, f"the {variant} gauge")
    raise TypeError(f"gauge_residual expects a SpectralField or a Trajectory, "
                    f"got {type(target).__name__}")


def reconstruct_u(gauge: GaugeState, v: SpectralField) -> SpectralField:
    """Invert the bo gauge: e^{iF} (i w) + e^{iF} P_-(e^{-iF} v) equals v.

    Only the ``bo`` variant admits this two-term inversion: there the mean
    mode of e^{-iF} v vanishes identically (e^{-iF} v = i d_x e^{-iF} is an
    exact derivative).  For ``gbo`` the discarded mean term does not vanish,
    so reconstruction is refused.  ``v`` must pass the rules ``_frames``
    applies to the bo gauge: the grid of ``gauge.F``, a real field, zero
    mean.  For such a v the result, symmetric only to round-off, is a
    complex field.
    """
    if gauge.variant != "bo":
        raise ValueError("reconstruction is only defined for the bo gauge")
    grid = _check_one_grid([gauge.F, v], "reconstruction from a gauge state")
    _check_real(v.coeffs, "reconstruction from a gauge state")
    _check_zero_mean(v.coeffs, "the bo gauge")
    points = _frame_points(grid.n, 1)
    E = _phase_factor(_real_vals(gauge.F.coeffs, points))
    Ebar = np.conj(E)
    iw_vals = _complex_values(1j * gauge.w.coeffs, points)
    minus_vals = _minus_vals(_complex_coeffs(E * _real_vals(v.coeffs, points), grid.n), grid,
                             points)
    rec = _complex_coeffs(Ebar * (iw_vals + minus_vals), grid.n)
    return SpectralField(grid, rec)


@dataclass(frozen=True)
class LipschitzGap:
    """Sup-norm gap between two gauge phases and its scaled ratio."""

    gap: float
    bound_ratio: float
    degenerate: bool


def gauge_lipschitz_gap(phi1: SpectralField, phi2: SpectralField,
                        variant: str = "bo", k: int = 1) -> LipschitzGap:
    """gap = ||e^{-iF1} - e^{-iF2}||_inf and gap / (sqrt(lam) ||phi1 - phi2||_L2).

    Equal inputs report a zero ratio with the degenerate flag set.
    """
    (E,) = _frames([phi1, phi2], variant, k, lambda fr: (fr.E,), zero_mean=False)
    gap = float(np.max(np.abs(E[0] - E[1])))
    if np.array_equal(phi1.coeffs, phi2.coeffs):
        return LipschitzGap(gap=0.0, bound_ratio=0.0, degenerate=True)
    dist = norm(phi1 - phi2, "lp", p=2)
    ratio = gap / (np.sqrt(phi1.grid.lam) * dist)
    return LipschitzGap(gap=gap, bound_ratio=float(ratio), degenerate=False)


# ---------------------------------------------------------------------------
# trajectory renormalizations
# ---------------------------------------------------------------------------


def remove_mean_bo(traj: Trajectory) -> Trajectory:
    """Shift a constant-mean solution to the zero-mean sector.

    v(t, x) = u(t, x - c*gamma*t) - gamma with gamma the conserved mean and
    c the coefficient of the nonlinearity (1 for ``gbo`` k=1, 2 for
    ``bo2``); v solves the same equation with zero mean.  Realized as the
    phase multiplier exp(-i*q*c*gamma*t) plus a mean subtraction.
    """
    if not (traj.equation == "bo2" or (traj.equation == "gbo" and traj.k == 1)):
        raise ValueError("mean removal applies to the k = 1 equations only")
    gamma = float(traj.half_coeffs[0, 0].real)
    rate = (2.0 if traj.equation == "bo2" else 1.0) * gamma
    iq = _symbol(traj.grid, "d_dx")[: traj.grid.n // 2 + 1]
    shifted = traj.half_coeffs * np.exp(-iq * rate * traj.times[:, None])
    shifted[:, 0] -= gamma
    return Trajectory(traj.grid, traj.times, shifted, traj.equation, traj.k)


def renormalize_gbo(traj: Trajectory) -> Trajectory:
    """Map a gbo solution to the renormalized zero-mean-flux form.

    v(t, x) = 2^(-1/k) u(t, x - S(t)),  S(t) = integral_0^t mean(u^k),
    which solves v_t + H v_xx = 2 M(v^k) v_x.  The amplitude factor makes
    the coefficient of the renormalized nonlinearity exactly 2, and the
    drift S(t) (accumulated with the trapezoid rule on the sample times)
    removes the mean transport.  mean(u^k) is summed exactly, on the
    alias-free grid of degree k.  ``_refusing_overflow`` names an overflow
    the renormalization's.
    """
    if traj.equation != "gbo":
        raise ValueError("renormalization applies to gbo trajectories only")
    k, half = traj.k, traj.half_coeffs
    amp = 2.0 ** (-1.0 / k)
    nbig = _alias_free_points(traj.grid.n, k)
    dt = traj.sample_dt
    iq = _symbol(traj.grid, "d_dx")[: traj.grid.n // 2 + 1]

    def renormalized() -> np.ndarray:
        means = np.concatenate([np.mean(_power(_real_values(half[rows], nbig), k), axis=-1)
                                for rows in _row_chunks(len(half), nbig)])
        shifts = np.concatenate(([0.0], np.cumsum(0.5 * dt * (means[1:] + means[:-1]))))
        return amp * half * np.exp(-iq * shifts[:, None])
    coeffs = _refusing_overflow("the renormalization", half, renormalized)
    return Trajectory(traj.grid, traj.times, coeffs, "renormalized_gbo", k)


def pde_residual(traj: Trajectory) -> ResidualNorms:
    """Residual of the trajectory's own evolution equation.

    Time derivatives use the fourth-order centered stencil on the sample
    times, so this measures how well the stored snapshots satisfy the
    tagged equation (used to validate the mean-removal and renormalization
    maps, and as a sampling-rate diagnostic).  The right-hand side is
    ``Equation`` at its default, the exact ``alias_free`` flux, which is
    also the solver's default: a ``two_thirds`` solve leaves the residual
    of the flux modes it zeroes, which halving the step barely changes.
    A residual that overflows a float is refused as the tagged equation's.
    """
    equation = Equation(traj.grid, traj.equation, traj.k)
    who = f"the {traj.equation} equation"
    half = traj.half_coeffs
    ut = _refusing_overflow(who, half, lambda: np.concatenate(
        [equation.rhs(half[rows]) for rows in _row_chunks(len(half), equation.nbig)]))
    return _stencil_residual(traj, _full_spectrum(half, traj.grid.n), -ut, who)
