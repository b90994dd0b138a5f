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

``gauge_residual`` turns these identities into numbers: instantaneous mode
substitutes the evolution equation for the time derivative (no time
stepping at all), trajectory mode uses fourth-order centered differences
on uniformly sampled snapshots.  Instantaneous mode takes u_t and v_t from
``evolve.Equation``, except the gbo nonlinear term: that stays in the
non-conservative form 2 M(v^k) v_x, which keeps the folded n/2 value the
solver's conservative flux zeroes, because the identity needs that slot at
finite n.  ``pde_residual`` substitutes ``Equation`` unchanged.

All products involving e^{-iF} are formed pointwise on a 4x zero-padded
grid and truncated back, so the only error left is the spectral tail of
the data.  A private frame computes a field's gauge data at most once:
the padded values of v and of M(v^k), the phase F, the padded e^{-iF} and
P_+(e^{-iF} v).  ``build_gauge``, both right-hand sides, both residual
modes and ``gauge_lipschitz_gap`` read it from there; the right-hand sides
take the field alone, no phase.
The mean-removal and renormalization maps translate a whole trajectory
stack by the odd generator iq of ``Equation``, which keeps the slot n/2.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .evolve import Equation
from .spectral import (
    ZERO_MEAN_TOL,
    PeriodicGrid,
    SpectralField,
    Trajectory,
    _full_spectrum,
    _power,
    _real_values,
    _row_chunks,
    analyze_values_padded,
    antiderivative,
    differentiate,
    hilbert,
    mean_remove,
    norm,
    project,
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
    "reconstruct_u",
    "LipschitzGap",
    "gauge_lipschitz_gap",
    "remove_mean_bo",
    "renormalize_gbo",
    "pde_residual",
]

_PAD = 4


def _vals(f: SpectralField) -> np.ndarray:
    return synthesize(f, _PAD)


def _field(values, grid, is_real=None) -> SpectralField:
    return analyze_values_padded(values, grid, is_real=is_real)


def _plus(values, grid) -> SpectralField:
    return project(_field(values, grid), "plus")


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
    """The gauge data of one real field v, each piece computed at most once.

    ``v_vals`` and ``mvk_vals`` are the padded values of v and of M(v^k)
    (``None`` for bo), ``F`` is the phase, the primitive of v (bo) or of
    M(v^k) (gbo), ``E`` the padded values of e^{-iF}, ``plus_Ev`` is
    P_+(e^{-iF} v) and ``w`` the filtered variable.  ``v_vals``,
    ``plus_Ev`` and ``w`` are computed on first use: ``gauge_lipschitz_gap``
    reads only ``E``.
    """

    def __init__(self, v: SpectralField, variant: str, k: int):
        if variant == "bo":
            if k != 1:
                raise ValueError(f"the bo gauge has k = 1, got k = {k!r}")
        elif variant == "gbo":
            if not isinstance(k, numbers.Integral) or k < 1:
                raise ValueError(f"the gbo gauge needs an integer k >= 1, got k = {k!r}")
        else:
            raise ValueError(f"unknown gauge variant {variant!r}")
        if not v.is_real:
            raise ValueError("gauge transform is defined for real fields")
        self.v, self.variant, self.k = v, variant, k
        if variant == "bo":
            self.mvk_vals, self.F = None, antiderivative(v)
        else:
            vk = _power(self.v_vals, k)
            self.mvk_vals = vk - np.mean(vk)
            self.F = antiderivative(mean_remove(_field(vk, v.grid))[1])
        self.E = np.exp(-1j * synthesize(self.F, _PAD))

    @functools.cached_property
    def v_vals(self) -> np.ndarray:
        return _vals(self.v)

    @functools.cached_property
    def plus_Ev(self) -> SpectralField:
        return _plus(self.E * self.v_vals, self.v.grid)

    @functools.cached_property
    def w(self) -> SpectralField:
        return (-1j) * self.plus_Ev if self.variant == "bo" else self.plus_Ev


def build_gauge(v: SpectralField, variant: str = "bo", k: int = 1) -> GaugeState:
    """Construct the gauge state of a real field.

    ``bo`` requires zero-mean input (the primitive must be periodic); the
    ``gbo`` phase uses M(v^k), which removes the mean itself.
    """
    fr = _Frame(v, variant, k)
    return GaugeState(F=fr.F, W=_plus(fr.E, v.grid), w=fr.w, variant=variant, k=k)


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
    return _rhs(_Frame(u, "bo", 1))


def _rhs_bo(fr: _Frame) -> RhsBo:
    u = fr.v
    ux_minus = synthesize(project(differentiate(u, "d_dx", 1), "minus"), _PAD)
    dx_term = (-2.0) * differentiate(_plus(ux_minus * fr.E, u.grid), "d_dx", 1)
    p0_u2 = float(np.mean(fr.v_vals * fr.v_vals))
    return RhsBo(dx_term=dx_term, mean_term=p0_u2 * fr.plus_Ev)


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
    return _rhs(_Frame(v, "gbo", k))


def _rhs_gbo(fr: _Frame) -> GboTerms:
    v, k, grid, E, v_vals = fr.v, fr.k, fr.v.grid, fr.E, fr.v_vals
    vx = differentiate(v, "d_dx", 1)
    p0_m2 = float(np.mean(fr.mvk_vals ** 2))
    a = 1j * p0_m2 * fr.plus_Ev

    vxx_minus = synthesize(project(differentiate(v, "d_dx", 2), "minus"), _PAD)
    b = -2j * _plus(E * vxx_minus, grid)

    vx_minus = synthesize(project(vx, "minus"), _PAD)
    g = _power(v_vals, k - 1) * vx_minus
    c = (-2.0 * k) * _plus(E * v_vals * (g - np.mean(g)), grid)

    if k >= 2:
        base = _power(v_vals, k - 2) * _vals(vx) * _vals(hilbert(vx))
        _, m_base = mean_remove(_field(base, grid))
        h = antiderivative(m_base)
        d = (-1j * k * (k - 1)) * _plus(E * v_vals * _vals(h), grid)
    else:
        d = SpectralField.zero(grid)
    return GboTerms(a=a, b=b, c=c, d=d)


def _rhs(fr: _Frame) -> RhsBo | GboTerms:
    """The right-hand side of the frame's gauge equation; v must have zero mean."""
    c0 = abs(fr.v.coeffs[0])
    if c0 >= ZERO_MEAN_TOL:
        raise ValueError(
            f"{fr.variant} gauge right-hand side needs zero-mean input: |C_0| = {c0:.3e}")
    return _rhs_bo(fr) if fr.variant == "bo" else _rhs_gbo(fr)


def _residual(fr: _Frame, wt: SpectralField) -> SpectralField:
    """w_t - i w_xx - RHS, given the time derivative of the frame's w."""
    return wt - 1j * differentiate(fr.w, "d_dx", 2) - _rhs(fr).total


@dataclass(frozen=True)
class ResidualNorms:
    """L^2 and H^1 norms of a gauge-equation residual."""

    l2: float
    h1: float
    per_sample_l2: tuple = ()
    per_sample_times: tuple = ()


@functools.lru_cache(maxsize=16)
def _equation(grid: PeriodicGrid, equation: str) -> Equation:
    """One ``Equation`` per grid and tag, shared (read-only) by the residuals and maps."""
    return Equation(grid, equation)


def _instantaneous_wt(fr: _Frame) -> SpectralField:
    """w_t with the evolution equation substituted for v_t."""
    v, k, grid = fr.v, fr.k, fr.v.grid
    if fr.variant == "bo":
        vt = _equation(grid, "bo2").rhs(v)
        vt_vals = _vals(vt)
        Ft = antiderivative(vt)
    else:
        # non-conservative: keeps the folded n/2 value, which the identity needs
        vt = _equation(grid, "linear").rhs(v) + _field(
            2.0 * fr.mvk_vals * _vals(differentiate(v, "d_dx", 1)), grid)
        vt_vals = _vals(vt)
        _, m_kvt = mean_remove(_field(k * _power(fr.v_vals, k - 1) * vt_vals, grid))
        Ft = antiderivative(m_kvt)
    wt = _plus(fr.E * (-1j * _vals(Ft) * fr.v_vals + vt_vals), grid)
    return (-1j) * wt if fr.variant == "bo" else wt


_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def _stencil_residual(traj: Trajectory, series, residual) -> ResidualNorms:
    """Norms of residual(i, d/dt series[i]), d/dt the 4th-order centered stencil."""
    if len(traj) < 5:
        raise ValueError("need at least 5 uniformly spaced snapshots")
    h = traj.sample_dt
    l2s, h1s, times = [], [], []
    for i in range(2, len(traj) - 2):
        dt_coeffs = sum(
            c * series[i + off] for off, c in zip((-2, -1, 0, 1, 2), _STENCIL)
        ) / h
        resid = residual(i, SpectralField(traj.grid, dt_coeffs, is_real=False))
        l2s.append(norm(resid, "lp", p=2))
        h1s.append(norm(resid, "hs", s=1.0))
        times.append(float(traj.times[i]))
    return ResidualNorms(
        l2=float(np.max(l2s)), h1=float(np.max(h1s)),
        per_sample_l2=tuple(l2s), per_sample_times=tuple(times),
    )


def gauge_residual(target, variant: str = "bo", k: int = 1,
                   mode: str = "instantaneous") -> ResidualNorms:
    """Residual of the derived gauge equation, ||w_t - i w_xx - RHS||.

    ``instantaneous`` takes a single field, substitutes the evolution
    equation for the time derivative, and must vanish to spectral accuracy;
    ``trajectory`` takes a uniformly sampled Trajectory (>= 5 snapshots) and
    differentiates w in time with a fourth-order centered stencil, so the
    residual decays like the fourth power of the sampling interval.
    """
    if mode == "instantaneous":
        if not isinstance(target, SpectralField):
            raise TypeError("instantaneous mode expects a SpectralField")
        fr = _Frame(target, variant, k)
        resid = _residual(fr, _instantaneous_wt(fr))
        return ResidualNorms(l2=norm(resid, "lp", p=2), h1=norm(resid, "hs", s=1.0))
    if mode == "trajectory":
        if not isinstance(target, Trajectory):
            raise TypeError("trajectory mode expects a Trajectory")
        frames = [_Frame(f, variant, k) for f in target]
        return _stencil_residual(target, [fr.w.coeffs for fr in frames],
                                 lambda i, wt: _residual(frames[i], wt))
    raise ValueError(f"unknown mode {mode!r}")


def reconstruct_u(gauge: GaugeState, v: SpectralField) -> SpectralField:
    """Invert the bo gauge: e^{iF} (i w) + e^{iF} P_-(e^{-iF} v) equals v.

    Only the ``bo`` variant admits this two-term inversion: there the mean
    mode of e^{-iF} v vanishes identically (e^{-iF} v = i d_x e^{-iF} is an
    exact derivative).  For ``gbo`` the discarded mean term does not vanish,
    so reconstruction is refused.
    """
    if gauge.variant != "bo":
        raise ValueError("reconstruction is only defined for the bo gauge")
    grid = v.grid
    F_vals = synthesize(gauge.F, _PAD)
    E = np.exp(-1j * F_vals)
    Ebar = np.exp(1j * F_vals)
    iw_vals = synthesize(1j * gauge.w, _PAD)
    minus_vals = synthesize(project(_field(E * _vals(v), grid), "minus"), _PAD)
    rec = _field(Ebar * (iw_vals + minus_vals), grid)
    return SpectralField(grid, rec.coeffs, is_real=v.is_real)


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
    phi1._check_same_grid(phi2)
    gap = float(np.max(np.abs(_Frame(phi1, variant, k).E - _Frame(phi2, variant, k).E)))
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
    iq = _equation(traj.grid, "linear").iq
    shifted = traj.half_coeffs * np.exp(-iq * rate * traj.times[:, None])
    shifted[:, 0] -= gamma
    return Trajectory(traj.grid, traj.times, shifted, traj.equation, traj.k)


def renormalize_gbo(traj: Trajectory) -> Trajectory:
    """Map a gbo solution to the renormalized zero-mean-flux form.

    v(t, x) = 2^(-1/k) u(t, x - S(t)),  S(t) = integral_0^t mean(u^k),
    which solves v_t + H v_xx = 2 M(v^k) v_x.  The amplitude factor makes
    the coefficient of the renormalized nonlinearity exactly 2, and the
    drift S(t) (accumulated with the trapezoid rule on the sample times)
    removes the mean transport.
    """
    if traj.equation != "gbo":
        raise ValueError("renormalization applies to gbo trajectories only")
    k, half = traj.k, traj.half_coeffs
    amp = 2.0 ** (-1.0 / k)
    means = np.concatenate([
        np.mean(_power(_real_values(half[rows], _PAD * traj.grid.n), k), axis=-1)
        for rows in _row_chunks(len(half), _PAD * traj.grid.n)
    ])
    dt = traj.sample_dt
    shifts = np.concatenate(([0.0], np.cumsum(0.5 * dt * (means[1:] + means[:-1]))))
    coeffs = amp * half * np.exp(-_equation(traj.grid, "linear").iq * shifts[:, None])
    return Trajectory(traj.grid, traj.times, coeffs, "renormalized_gbo", k)


def pde_residual(traj: Trajectory) -> ResidualNorms:
    """Residual of the trajectory's own evolution equation.

    Time derivatives use the fourth-order centered stencil on the sample
    times, so this measures how well the stored snapshots satisfy the
    tagged equation (used to validate the mean-removal and renormalization
    maps, and as a sampling-rate diagnostic).
    """
    equation = Equation(traj.grid, traj.equation, traj.k)
    return _stencil_residual(traj, _full_spectrum(traj.half_coeffs, traj.grid.n),
                             lambda i, ut: ut - equation.rhs(traj[i]))
