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

(At k = 1 the second equation, multiplied by -i, reduces to the first:
P_+(u e^{-iF}) = i w there, and the b and c terms collapse into the single
derivative term via d_x P_+(e^{-iF} P_-(u_x)) = P_+(e^{-iF} P_-(u_xx))
- i P_+(u e^{-iF} P_-(u_x)).)

``gauge_residual`` turns these identities into numbers: on a field it
substitutes the evolution equation for the time derivative (no time
stepping at all), on a trajectory it uses fourth-order centered differences
on uniformly sampled snapshots.  The instantaneous residual takes u_t and
v_t from ``evolve.Equation``, except the gbo nonlinear term: that stays in
the non-conservative form 2 M(v^k) v_x, which keeps the folded n/2 value
the solver's conservative flux zeroes, because the identity needs that
slot at finite n.  ``pde_residual`` substitutes ``Equation`` unchanged.

All products involving e^{-iF} are formed pointwise on a 4x zero-padded
grid and truncated back, so the only error left is the spectral tail of
the data.  A private frame computes the gauge data of a (B, n) stack of
coefficient rows of real fields on one grid, each piece at most once: the
padded values of v and of M(v^k), the phase F, the padded e^{-iF} and
P_+(e^{-iF} v).  The right-hand sides and the residuals act on the frame's
arrays with the multipliers ``spectral._symbol`` caches per grid, and rows
never mix.  ``gauge_residual_batch`` evaluates an ensemble in stacks of at
most ``spectral._STACK_POINTS`` padded points; an instantaneous
``gauge_residual`` is its stack of one, a trajectory residual and the
estimate monitor's w series build one frame per stack of snapshots, and
``build_gauge``, ``rhs_bo``, ``rhs_gbo_terms`` and ``gauge_lipschitz_gap``
read rows of a small stack.
Every entry point checks its input with the rules of ``spectral``, each
said once there: fields on one grid, real fields (tested on the stack), a
(variant, k) pair that names a gauge, and zero mean where the phase or a
right-hand side needs it.
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
    _DEFAULT_PAD,
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
    _real_coeffs,
    _real_values,
    _row_chunks,
    _symbol,
    norm,
    synthesize,
)

__all__ = [
    "GaugeState",
    "build_gauge",
    "RhsBo",
    "rhs_bo",
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


def _real_vals(coeffs: np.ndarray) -> np.ndarray:
    """Padded values of real fields given as coefficient rows (..., n)."""
    n = coeffs.shape[-1]
    return _real_values(coeffs[..., : n // 2 + 1], _DEFAULT_PAD * n)


def _real_rows(values: np.ndarray, n: int) -> np.ndarray:
    """Real padded values (..., 4n) -> conjugate-symmetric coefficient rows (..., n)."""
    return _full_spectrum(_real_coeffs(values, n), n)


def _minus_vals(coeffs: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Padded values of P_- of coefficient rows (..., n)."""
    return _complex_values(np.where(_symbol(grid, "minus"), coeffs, 0.0), _DEFAULT_PAD * grid.n)


def _plus(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Coefficient rows (..., n) of P_+ of padded complex values (..., 4n)."""
    return np.where(_symbol(grid, "plus"), _complex_coeffs(values, grid.n), 0.0)


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


def _checked(coeffs: np.ndarray, variant: str, k, zero_mean: bool = True) -> np.ndarray:
    """A (B, n) stack of real fields' coefficient rows, once every row is checked.

    The pair (variant, k) must pass ``spectral._check_gauge_variant`` (bo
    with k = 1, gbo with an integer k >= 1).  Zero mean, the rule of
    ``spectral._check_zero_mean``, is required by the bo phase and by both
    right-hand sides.
    """
    _check_gauge_variant(variant, k)
    if zero_mean or variant == "bo":
        _check_zero_mean(coeffs, f"the {variant} gauge")
    return coeffs


def _stack(fields: list, variant: str, k, zero_mean: bool = True):
    """The checked coefficient rows of real fields on one grid, and the grid."""
    grid = _check_one_grid(fields, "the gauge transform")
    coeffs = np.array([f.coeffs for f in fields])
    _check_real(coeffs, "the gauge transform")
    return _checked(coeffs, variant, k, zero_mean), grid


class _Frame:
    """The gauge data of a (B, n) stack of real fields, each piece computed at most once.

    ``coeffs`` holds the coefficient rows of the fields, checked by the
    caller.  ``v_vals`` and ``mvk_vals`` are the (B, 4n) padded values of v
    and of M(v^k) (``None`` for bo), ``F`` the phase rows, the primitive of
    v (bo) or of M(v^k) (gbo), ``E`` the padded values of e^{-iF},
    ``plus_Ev`` the rows of P_+(e^{-iF} v) and ``w`` those of the filtered
    variable.  ``v_vals``, ``plus_Ev`` and ``w`` are computed on first use:
    ``gauge_lipschitz_gap`` reads only ``E``.
    """

    def __init__(self, coeffs: np.ndarray, grid: PeriodicGrid, variant: str, k: int):
        self.coeffs, self.grid, self.variant, self.k = coeffs, grid, variant, k
        if variant == "bo":
            self.mvk_vals, self.F = None, _primitive(coeffs, grid)
        else:
            vk = _power(self.v_vals, k)
            self.mvk_vals = vk - np.mean(vk, axis=-1, keepdims=True)
            self.F = _primitive(_real_rows(vk, grid.n), grid)
        self.E = np.exp(-1j * _real_vals(self.F))

    @functools.cached_property
    def v_vals(self) -> np.ndarray:
        return _real_vals(self.coeffs)

    @functools.cached_property
    def plus_Ev(self) -> np.ndarray:
        return _plus(self.E * self.v_vals, self.grid)

    @functools.cached_property
    def w(self) -> np.ndarray:
        return (-1j) * self.plus_Ev if self.variant == "bo" else self.plus_Ev


def build_gauge(v: SpectralField, variant: str = "bo", k: int = 1) -> GaugeState:
    """Construct the gauge state of a real field.

    ``bo`` requires zero-mean input (the primitive must be periodic); the
    ``gbo`` phase uses M(v^k), which removes the mean itself.
    """
    fr = _Frame(*_stack([v], variant, k, zero_mean=False), variant, k)
    return GaugeState(*(SpectralField(fr.grid, rows[0])
                        for rows in (fr.F, _plus(fr.E, fr.grid), fr.w)), variant, k)


@dataclass(frozen=True)
class RhsBo:
    """Right-hand side of the bo gauge equation, term by term."""

    dx_term: SpectralField
    mean_term: SpectralField

    @property
    def total(self) -> SpectralField:
        return self.dx_term + self.mean_term


def rhs_bo(u: SpectralField) -> RhsBo:
    """-2 d_x P_+(P_-(u_x) e^{-iF}) + P_0(u^2) P_+(u e^{-iF}) for zero-mean real u."""
    fr = _Frame(*_stack([u], "bo", 1), "bo", 1)
    return RhsBo(*(SpectralField(fr.grid, term[0]) for term in _rhs_bo(fr)))


def _rhs_bo(fr: _Frame) -> tuple:
    grid, dx = fr.grid, _symbol(fr.grid, "d_dx")
    ux_minus = _minus_vals(dx * fr.coeffs, grid)
    dx_term = (-2.0) * (dx * _plus(ux_minus * fr.E, grid))
    p0_u2 = np.mean(fr.v_vals * fr.v_vals, axis=-1, keepdims=True)
    return dx_term, p0_u2 * fr.plus_Ev


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
    fr = _Frame(*_stack([v], "gbo", k), "gbo", k)
    return GboTerms(*(SpectralField(fr.grid, term[0]) for term in _rhs_gbo(fr)))


def _rhs_gbo(fr: _Frame) -> tuple:
    k, grid, E, v_vals = fr.k, fr.grid, fr.E, fr.v_vals
    vx = _symbol(grid, "d_dx") * fr.coeffs
    p0_m2 = np.mean(fr.mvk_vals ** 2, axis=-1, keepdims=True)
    a = 1j * p0_m2 * fr.plus_Ev

    # Named, not inline: numpy would multiply E into a large temporary in
    # place, with the complex operands swapped, which rounds differently.
    vxx_minus = _minus_vals(_symbol(grid, "d_dx", 2) * fr.coeffs, grid)
    b = -2j * _plus(E * vxx_minus, grid)

    vx_minus = _minus_vals(vx, grid)
    g = _power(v_vals, k - 1) * vx_minus
    c = (-2.0 * k) * _plus(E * v_vals * (g - np.mean(g, axis=-1, keepdims=True)), grid)

    if k >= 2:
        base = _power(v_vals, k - 2) * _real_vals(vx) * _real_vals(_symbol(grid, "hilbert") * vx)
        h = _primitive(_real_rows(base, grid.n), grid)
        d = (-1j * k * (k - 1)) * _plus(E * v_vals * _real_vals(h), grid)
    else:
        d = np.zeros_like(a)
    return a, b, c, d


def _subtracted(fr: _Frame) -> tuple:
    """The rows of i w_xx and of the right-hand side, subtracted in turn from w_t."""
    rhs = _rhs_bo(fr) if fr.variant == "bo" else _rhs_gbo(fr)
    return 1j * (_symbol(fr.grid, "d_dx", 2) * fr.w), sum(rhs[1:], rhs[0])


@dataclass(frozen=True)
class ResidualNorms:
    """L^2 and H^1 norms of a gauge-equation residual."""

    l2: float
    h1: float


@functools.lru_cache(maxsize=16)
def _equation(grid: PeriodicGrid, equation: str) -> Equation:
    """One ``Equation`` per grid and tag, shared (read-only) by the residuals."""
    return Equation(grid, equation)


def _instantaneous_wt(fr: _Frame) -> np.ndarray:
    """Rows of w_t with the evolution equation substituted for v_t."""
    k, grid = fr.k, fr.grid
    half = fr.coeffs[:, : grid.n // 2 + 1]
    if fr.variant == "bo":
        vt = _equation(grid, "bo2").rhs(half)
        vt_vals = _real_vals(vt)
        Ft = _primitive(vt, grid)
    else:
        # non-conservative: keeps the folded n/2 value, which the identity needs
        vx_vals = _real_vals(_symbol(grid, "d_dx") * fr.coeffs)
        vt = _equation(grid, "linear").rhs(half) + _real_rows(2.0 * fr.mvk_vals * vx_vals, grid.n)
        vt_vals = _real_vals(vt)
        Ft = _primitive(_real_rows(k * _power(fr.v_vals, k - 1) * vt_vals, grid.n), grid)
    # e^{iF} d_t(e^{-iF} v), named for the reason given at vxx_minus in _rhs_gbo
    Ev_t = -1j * _real_vals(Ft) * fr.v_vals + vt_vals
    wt = _plus(fr.E * Ev_t, grid)
    return (-1j) * wt if fr.variant == "bo" else wt


_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def _stencil_residual(traj: Trajectory, series: np.ndarray, *terms) -> ResidualNorms:
    """Norms of d/dt series - terms on the interior snapshots.

    ``series`` and each term are (S, n) stacks of coefficient rows, one row
    per snapshot; d/dt is the 4th-order centered stencil and the terms are
    subtracted in order.
    """
    S = len(traj)
    if S < 5:
        raise ValueError("need at least 5 uniformly spaced snapshots")
    resid = sum(c * series[2 + off: S - 2 + off]
                for off, c in zip((-2, -1, 0, 1, 2), _STENCIL)) / traj.sample_dt
    for term in terms:
        resid = resid - term[2: S - 2]
    return ResidualNorms(l2=float(np.max(_parseval_norms(resid, traj.grid))),
                         h1=float(np.max(_parseval_norms(resid, traj.grid, 1.0))))


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
    coeffs, grid = _stack(fields, variant, k)
    results = []
    for rows in _row_chunks(len(coeffs), _DEFAULT_PAD * grid.n):
        fr = _Frame(coeffs[rows], grid, variant, k)
        iwxx, rhs = _subtracted(fr)
        resid = _instantaneous_wt(fr) - iwxx - rhs
        results += [ResidualNorms(l2=l2, h1=h1) for l2, h1 in
                    zip(_parseval_norms(resid, grid).tolist(),
                        _parseval_norms(resid, grid, 1.0).tolist())]
    return results


def _snapshot_stacks(traj: Trajectory, variant: str, k: int,
                     parts=lambda fr: (fr.w,)) -> tuple:
    """The (S, n) stacks of the rows ``parts`` reads off the snapshots' frames.

    The snapshots must be zero-mean.  One frame is built per stack of at
    most ``spectral._STACK_POINTS`` padded points; by default the stacks are
    just w, one row per snapshot, bit-identical to ``build_gauge`` on each.
    """
    grid = traj.grid
    coeffs = _checked(_full_spectrum(traj.half_coeffs, grid.n), variant, k)
    chunks = [parts(_Frame(coeffs[rows], grid, variant, k))
              for rows in _row_chunks(len(coeffs), _DEFAULT_PAD * grid.n)]
    return tuple(np.concatenate(stack) for stack in zip(*chunks))


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
        w, iwxx, rhs = _snapshot_stacks(target, variant, k,
                                        lambda fr: (fr.w, *_subtracted(fr)))
        return _stencil_residual(target, w, iwxx, rhs)
    raise TypeError(f"gauge_residual expects a SpectralField or a Trajectory, "
                    f"got {type(target).__name__}")


def reconstruct_u(gauge: GaugeState, v: SpectralField) -> SpectralField:
    """Invert the bo gauge: e^{iF} (i w) + e^{iF} P_-(e^{-iF} v) equals v.

    Only the ``bo`` variant admits this two-term inversion: there the mean
    mode of e^{-iF} v vanishes identically (e^{-iF} v = i d_x e^{-iF} is an
    exact derivative).  For ``gbo`` the discarded mean term does not vanish,
    so reconstruction is refused.  For a real v the result, symmetric only
    to round-off, is a complex field.
    """
    if gauge.variant != "bo":
        raise ValueError("reconstruction is only defined for the bo gauge")
    grid = v.grid
    F_vals = synthesize(gauge.F, _DEFAULT_PAD)
    E = np.exp(-1j * F_vals)
    Ebar = np.exp(1j * F_vals)
    iw_vals = synthesize(1j * gauge.w, _DEFAULT_PAD)
    minus_vals = _minus_vals(_complex_coeffs(E * synthesize(v, _DEFAULT_PAD), grid.n), grid)
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
    E = _Frame(*_stack([phi1, phi2], variant, k, zero_mean=False), variant, k).E
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
    alias-free grid of degree k.
    """
    if traj.equation != "gbo":
        raise ValueError("renormalization applies to gbo trajectories only")
    k, half = traj.k, traj.half_coeffs
    amp = 2.0 ** (-1.0 / k)
    nbig = _alias_free_points(traj.grid.n, k)
    means = np.concatenate([np.mean(_power(_real_values(half[rows], nbig), k), axis=-1)
                            for rows in _row_chunks(len(half), nbig)])
    dt = traj.sample_dt
    shifts = np.concatenate(([0.0], np.cumsum(0.5 * dt * (means[1:] + means[:-1]))))
    iq = _symbol(traj.grid, "d_dx")[: traj.grid.n // 2 + 1]
    coeffs = amp * half * np.exp(-iq * shifts[:, None])
    return Trajectory(traj.grid, traj.times, coeffs, "renormalized_gbo", k)


def pde_residual(traj: Trajectory) -> ResidualNorms:
    """Residual of the trajectory's own evolution equation.

    Time derivatives use the fourth-order centered stencil on the sample
    times, so this measures how well the stored snapshots satisfy the
    tagged equation (used to validate the mean-removal and renormalization
    maps, and as a sampling-rate diagnostic).
    """
    equation = Equation(traj.grid, traj.equation, traj.k)
    half = traj.half_coeffs
    ut = np.concatenate([equation.rhs(half[rows])
                         for rows in _row_chunks(len(half), equation.nbig)])
    return _stencil_residual(traj, _full_spectrum(half, traj.grid.n), ut)
