"""Time integration of the dispersive model equations in Fourier space.

Equations (all on the 2*pi*lam circle, H the Hilbert transform):

    linear            u_t + H u_xx = 0
    gbo (k >= 1)      u_t + H u_xx = u^k u_x
    bo2               u_t + H u_xx = 2 u u_x
    renormalized_gbo  v_t + H v_xx = 2 (v^k - mean v^k) v_x

The stiff linear phase exp(-i*q|q|*t) is treated exactly: the default
``if_rk4`` scheme is classical four-stage Runge-Kutta on the
integrating-factor variable exp(+i*q|q|*t) * u_hat; ``etd_rk4`` is the
Cox-Matthews exponential scheme with coefficients evaluated by the
Kassam-Trefethen contour trick (SIAM J. Sci. Comput. 26 (2005), 1214).

``Equation`` is the one definition of each right-hand side: ``solve``
integrates it and the residuals of ``gauge`` substitute it.  Which (tag, k)
pairs name one is decided by one rule, ``spectral._check_equation``, which
``SolverConfig``, ``Equation`` and ``Trajectory`` all apply.  The other
parameters (the solver's, and ``Equation``'s ``dealias``) are checked by
this module's rule table ``_RULES`` (see ``spectral``), which the config
keys of the same names share; ``SolverConfig`` adds the cross-key rule
t_final >= dt.  The linear phase and iq of ``Equation`` are read from
``spectral._symbol`` (kinds ``bo_group`` and ``d_dx``), the table that
``lingroup.group_symbol`` serves too.  Its nonlinear
terms are in conservative form d_x(u^{k+1})/(k+1) so the mean mode is
conserved to round-off, and products are dealiased by one of two rules.
The default, ``alias_free``, forms them on the alias-free grid of degree
k + 2, where the flux and the renormalized mean of v^k are exact at every
k; ``two_thirds`` zeroes the flux modes |q| > n/3.
``SolverConfig``'s fields are the one place the solver's ``scheme`` and
``dealias`` defaults are written; ``Equation`` reads its default there.
The flux has one implementation, the closure ``Equation._flux`` built once
per equation (or stack of degrees, ``Equation._stack``), which writes into
caller-owned arrays; ``nonlinear`` (so ``rhs``) is its allocating case.

Solver state is the rfft half spectrum: modes m = 0, 1, ..., n/2 of a real
field, the negative modes being their conjugates.  Values and fluxes go
through the real-field transforms of ``spectral``, which own the
zero-padding and the Nyquist split/fold convention.  The imaginary parts of
the mean and Nyquist slots are zeroed once on entry; the odd symbols (iq,
the bo group symbol) vanish on the Nyquist slot, so it is constant in time.
The stored states are the rows of the trajectory's half-spectrum stack as
they are; indexing the Trajectory expands a row to the full transform-order
SpectralField, exactly conjugate symmetric.

The state is a ``(..., n/2+1)`` stack: ``solve_batch`` advances B fields
on one grid under one SolverConfig as a ``(B, n/2+1)`` array, and ``solve``
is its one-field case with a 1-D ``(n/2+1,)`` state.  ``_solve_levels``
steps one field under several configs that differ in dt, step count or
sample stride (a step-halving ladder: ``convergence_order`` and the order
study of ``experiments``' conservation) as one stack too: the levels step
in lockstep, each row with its own step constants, and a level leaves the
stack once its steps are done, the last one of a single degree stepping as
a 1-D state.  The ladders of several degrees k of one equation (the order
study's ``e_ks``) share that stack when every degree has the same ladder:
the rows go level-major, degree-minor, on the largest degree's alias-free
grid, where every degree's flux is exact, and one inverse and one forward
transform per stage serve them all.  Rows never mix (every transform and
product acts along the last axis), so each row is bit-for-bit the
single-field solution on the stack's grid: a one-degree stack's rows are
``solve``'s, and a smaller degree's rows move by round-off from its own
grid's.  A row blows up when, after a step, one of its modes is non-finite
or exceeds the magnitude guard: that row reports ``BlowUpError`` with its
time before the step and is set to zero, which the equations keep exactly
zero, and the other rows go on.

A step allocates no stack-sized array.  Each stack (each phase of a
ladder's stack, between two levels leaving it) gets its stage arrays, a
magnitude array for the blow-up test and the flux's transform work
arrays once; the stage arithmetic writes into them with ``out=`` in the
operations and order of the schemes' plain expressions, so every
intermediate, and every stored state, is bit-for-bit that of the
allocating form.  A step makes eight transform calls on the whole stack,
four forward and four inverse, of ``Equation.nbig`` points per row, through
``spectral``'s transform set ``_FFTS`` as it was when the ``Equation`` was
built.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError
from .spectral import (_POSITIVE, PeriodicGrid, SpectralField, Trajectory, _Rule,
                       _alias_free_points, _check_equation, _check_one_grid, _check_real,
                       _check_values, _check_zero_mean, _choice, _finite, _full_spectrum,
                       _integer, _power_steps, _real_transforms, _row_chunks, _symbol)

__all__ = ["Equation", "SolverConfig", "solve", "solve_batch", "convergence_order",
           "ConvergenceResult"]

_BLOWUP_GUARD = 1e8
_CONTOUR_POINTS = 64
# Rules shared with config keys (see spectral).
_RULES = {
    **dict.fromkeys(("dt", "t_final"), _POSITIVE),
    "scheme": _choice("if_rk4", "etd_rk4"),
    "dealias": _choice("two_thirds", "alias_free"),
    "sample_stride": _integer(1),
    "n_levels": _integer(3),  # a slope needs two errors below the reference
}


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    ``sample_stride`` controls snapshot thinning: a snapshot is stored every
    ``sample_stride`` steps, and the step count t_final/dt must be an exact
    multiple of it so sample times stay uniform.  ``dealias`` is
    ``alias_free`` (the default: products on the smallest zero-padded grid
    where the flux is exact, ``spectral._alias_free_points(n, k + 2)``
    points) or ``two_thirds`` (flux modes |q| > n/3 zeroed).  These fields
    are the one place the solver's defaults are written.
    """

    equation: str
    dt: float
    t_final: float
    k: int = 1
    scheme: str = "if_rk4"
    dealias: str = "alias_free"
    sample_stride: int = 1

    def __post_init__(self):
        _check_equation(self.equation, self.k)
        _check_values(_RULES, scheme=self.scheme, dealias=self.dealias, dt=self.dt)
        _Rule(lambda v: _finite(v) and v >= self.dt, "finite and at least dt").check(
            "t_final", self.t_final)
        _check_values(_RULES, sample_stride=self.sample_stride)

    def n_steps(self) -> int:
        ratio = self.t_final / self.dt
        if not math.isfinite(ratio):
            raise ValueError(f"t_final / dt = {self.t_final} / {self.dt} overflows a float")
        if ratio > 2 ** 53:  # beyond this, neighbouring step counts share one float
            raise ValueError(f"t_final / dt = {self.t_final} / {self.dt} = {ratio:g} "
                             f"steps, more than a float counts exactly (2**53)")
        steps = int(round(ratio))
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(
                f"t_final = {self.t_final} is not an integer number of steps dt = {self.dt}"
            )
        if steps % self.sample_stride != 0:
            raise ValueError(
                f"step count {steps} is not a multiple of sample_stride {self.sample_stride}"
            )
        return steps


class Equation:
    """Right-hand side u_t = symbol * u_hat + N(u_hat) of one tagged equation.

    ``symbol`` is the bo group symbol and ``nonlinear`` the dealiased
    conservative flux, both on the half spectrum (modes 0..n/2 along the
    last axis of a stack); the odd symbols zero the Nyquist slot.  ``rhs``
    expands their sum to the full transform order.  The stepper calls the
    flux closure ``_flux`` with arrays of its own (``_work``).  ``nbig`` is
    the points per row the flux is formed on: the alias-free size of degree
    k + 2 under ``alias_free``, else n (``two_thirds``).  ``dealias``
    defaults to ``SolverConfig``'s.  ``ks`` are the degrees of a stack's
    rows, row i of degree ``ks[i % len(ks)]``: ``(k,)``, or several from
    ``_stack``.
    """

    def __init__(self, grid: PeriodicGrid, equation: str, k: int = 1,
                 dealias: str = SolverConfig.dealias):
        _check_equation(equation, k)
        _check_values(_RULES, dealias=dealias)
        half = grid.n // 2
        self.grid, self.eq, self.k, self.n, self.ks = grid, equation, k, grid.n, (k,)
        self.symbol = _symbol(grid, "bo_group")[: half + 1]
        self.iq = _symbol(grid, "d_dx")[: half + 1]
        self.nbig = _alias_free_points(grid.n, k + 2) if dealias == "alias_free" else grid.n
        self.cut = grid.n // 3 + 1 if dealias == "two_thirds" else None
        self._flux = self._build_flux()

    def _stack(self, ks, nbig: int) -> Equation:
        """This equation for stacks whose row i has degree ``ks[i % len(ks)]``,
        its flux formed on ``nbig`` points.

        A flux is exact on any grid at or above its alias-free size (Orszag
        1971; Boyd 2001, sec. 11.5), so degrees stack on the largest one's
        ``nbig``; a smaller ``nbig`` aliases the larger degrees' fluxes.
        """
        stack = copy.copy(self)
        stack.ks, stack.nbig = tuple(ks), nbig
        stack._flux = stack._build_flux()
        return stack

    def _folded(self, k: int) -> bool:
        """Whether gbo's ``/ (k + 1)`` is folded into iq: k + 1 is a power of two."""
        return self.eq == "gbo" and not k & (k + 1)

    def _work(self, lead: tuple) -> tuple:
        """Flux work arrays of a stack with leading shape ``lead``: values,
        Nyquist-split spectrum, each degree's power slots (values and a pair),
        the powers, padded spectrum, each degree's flux rows and every row's
        iq (none for linear).  A degree's slots and flux rows are its rows
        ``[d::D]`` of the stack's arrays, D = len(ks), and its power lands in
        the powers' rows; one degree's are the whole arrays."""
        if self.eq == "linear":
            return ()
        ks, degrees = self.ks, len(self.ks)

        def rows(a, d):
            return a if degrees == 1 else a[d::degrees]

        vals = np.empty(lead + (self.nbig,))
        powers, spare = np.empty_like(vals), np.empty_like(vals)
        spec = np.empty(lead + (self.nbig // 2 + 1,), dtype=np.complex128)
        slots = [[rows(a, d) for a in ((vals, powers, spare) if _power_steps(k + 1)[1] == 1
                                       else (vals, spare, powers))]
                 for d, k in enumerate(ks)]
        iqs = [self.iq / (k + 1) if self._folded(k) else self.iq for k in ks]
        return (vals, np.empty(lead + (self.n // 2 + 1,), dtype=np.complex128), slots, powers,
                spec, [rows(spec[..., : self.n // 2 + 1], d) for d in range(degrees)],
                iqs[0] if degrees == 1 else np.tile(iqs, (lead[0] // degrees, 1)))

    def _build_flux(self):
        """The dealiased flux ``flux(uhat, out, work) -> out`` of one row
        (n/2+1,) or a stack (..., n/2+1), with the transforms (of ``_FFTS``
        as it is now), powers and constants settled once.

        ``work`` comes from ``_work`` and is clobbered; ``out`` must not
        share memory with uhat or work.  One inverse and one forward
        transform serve the whole stack; each degree's power, its ``/ (k +
        1)`` and any renormalized mean act on its rows.  When k + 1 is a
        power of two (k = 1, 3, 7), dividing by it only shifts exponents, so
        gbo's ``iq * (flux / (k + 1))`` is bit for bit ``(iq / (k + 1)) *
        flux`` unless a flux value is below 2^-1022 (k + 1), near subnormal.
        """
        eq, ks, cut, degrees = self.eq, self.ks, self.cut, len(self.ks)
        if eq == "linear":
            def flux(uhat, out, work):
                out.fill(0.0)
                return out
            return flux
        values, coeffs = _real_transforms(self.n, self.nbig)
        chains = [_power_steps(k + 1)[0] for k in ks]
        divided = [(d, k + 1) for d, k in enumerate(ks) if eq == "gbo" and not self._folded(k)]
        renormalized = [(d, k + 1, *_power_steps(k)) for d, k in enumerate(ks)
                        if eq == "renormalized_gbo"]
        mul = np.multiply

        def flux(uhat, out, work):
            vals, split, slots, powers, spec, rows, iq = work
            values(uhat, vals, split)
            for steps, s in zip(chains, slots):
                for a, b, dest in steps:
                    mul(s[a], s[b], out=s[dest])
            f = coeffs(powers, spec)
            if cut is not None:
                f[..., cut:] = 0.0
            for d, k1 in divided:
                np.divide(rows[d], k1, out=rows[d])
            for d, k1, mean_steps, mean_last in renormalized:
                # 2 M(v^k) v_x = d_x(2 v^{k+1}/(k+1) - 2 mean(v^k) v)
                s, f_d = slots[d], rows[d]
                for a, b, dest in mean_steps:
                    mul(s[a], s[b], out=s[dest])
                mean = np.mean(s[mean_last], axis=-1, keepdims=True)
                mul(2.0, f_d, out=f_d)
                np.divide(f_d, k1, out=f_d)
                u_d, out_d = (uhat, out) if degrees == 1 else (uhat[d::degrees], out[d::degrees])
                np.subtract(f_d, mul(2.0 * mean, u_d, out=out_d), out=f_d)
            return mul(iq, f, out=out)

        return flux

    def nonlinear(self, uhat: np.ndarray) -> np.ndarray:
        """The dealiased flux of a half-spectrum stack (..., n/2+1), as a new array."""
        return self._flux(uhat, np.empty(uhat.shape, dtype=np.complex128),
                          self._work(uhat.shape[:-1]))

    def rhs(self, uhat: np.ndarray) -> np.ndarray:
        """u_t of a half-spectrum stack (..., n/2+1), in full transform order (..., n)."""
        return _full_spectrum(self.symbol * uhat + self.nonlinear(uhat), self.n)


def _etdrk4_weights(z: np.ndarray, dt: float):
    """Cox-Matthews coefficients via contour averaging around each z."""
    theta = np.exp(2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS)
    zr = z[:, None] + theta[None, :]
    ez = np.exp(zr)
    q2 = (np.exp(zr / 2.0) - 1.0) / zr
    f1 = (-4.0 - zr + ez * (4.0 - 3.0 * zr + zr * zr)) / zr**3
    f2 = (2.0 + zr + ez * (zr - 2.0)) / zr**3
    f3 = (-4.0 - 3.0 * zr - zr * zr + ez * (4.0 - zr)) / zr**3
    return (dt * q2.mean(axis=1), dt * f1.mean(axis=1),
            dt * f2.mean(axis=1), dt * f3.mean(axis=1))


def solve(u0: SpectralField, cfg: SolverConfig) -> Trajectory:
    """Integrate u0 under cfg and return the sampled trajectory.

    The initial field must be real; the renormalized equation
    additionally requires zero-mean data.  Non-finite or exploding modes
    raise BlowUpError carrying the last good time.
    """
    (result,) = solve_batch([u0], cfg)
    if isinstance(result, BlowUpError):
        raise result
    return result


def solve_batch(u0s, cfg: SolverConfig) -> list:
    """Integrate every field of u0s under cfg, stacked.

    Returns one entry per field, in order: its Trajectory, or the
    BlowUpError (carrying the last good time) of a row that blew up; the
    other rows are unaffected.  The fields must share one grid and meet
    ``solve``'s conditions, all checked before any step.  The rows are
    stepped in stacks of at most ``spectral._STACK_POINTS`` padded points,
    which keeps a stack's work arrays in cache and its memory bounded.
    """
    u0s = list(u0s)
    if not u0s:
        return []
    return _stacks(u0s, [cfg] * len(u0s), _checked_equation(u0s, cfg))


def _solve_levels(u0: SpectralField, cfgs: list) -> list:
    """Integrate u0 under each of cfgs as one stack: entry j is its Trajectory
    or BlowUpError under ``cfgs[j]``, as ``solve`` gives it on the stack's grid.

    The configs must share equation, scheme and dealias.  Their degrees k
    may differ when each degree has one ladder: the same dt, step count and
    ``sample_stride``, in the same order (its configs in the order given).
    The stack is formed on the largest degree's ``Equation.nbig`` points,
    where every degree's flux is exact, so the rows of the largest degree
    are bit for bit ``solve``'s and a smaller degree's rows are its solve on
    that grid, which moves them by round-off.  The rows go level-major,
    degree-minor (row i of degree ``ks[i % D]``, ks ascending, D of them),
    step in lockstep in ascending step count, and a level's D rows leave
    the stack once its steps are done, so a step-halving ladder of D
    degrees makes one transform call where separate solves make one per
    level and degree.
    """
    first = cfgs[0]
    for cfg in cfgs:
        if (cfg.equation, cfg.scheme, cfg.dealias) != (first.equation, first.scheme,
                                                       first.dealias):
            raise ValueError(f"levels stepped as one stack must share equation, scheme and "
                             f"dealias: {cfg} and {first} differ")
    ks = sorted({cfg.k for cfg in cfgs})
    ladders = [[j for j, cfg in enumerate(cfgs) if cfg.k == k] for k in ks]
    rungs = [[(cfgs[j].dt, cfgs[j].n_steps(), cfgs[j].sample_stride) for j in ladder]
             for ladder in ladders]
    for k, rung in zip(ks, rungs):
        if rung != rungs[0]:
            raise ValueError(f"degrees stepped as one stack must share one ladder of dt, step "
                             f"count and sample_stride: k = {k} steps {rung}, k = {ks[0]} "
                             f"steps {rungs[0]}")
    levels = sorted(range(len(rungs[0])), key=lambda j: rungs[0][j][1])
    order = [ladder[j] for j in levels for ladder in ladders]
    top = _checked_equation([u0], replace(first, k=ks[-1]))
    stepped = dict(zip(order, _stacks([u0] * len(cfgs), [cfgs[j] for j in order],
                                      top._stack(ks, top.nbig))))
    return [stepped[j] for j in range(len(cfgs))]


def _checked_equation(u0s: list, cfg: SolverConfig) -> Equation:
    """The Equation of cfg on the fields' one grid, once every field meets
    ``solve``'s conditions."""
    grid = _check_one_grid(u0s, "solve")
    coeffs = np.array([u0.coeffs for u0 in u0s])
    _check_real(coeffs, "solve")
    if cfg.equation == "renormalized_gbo":
        _check_zero_mean(coeffs, "the renormalized equation")
    return Equation(grid, cfg.equation, cfg.k, cfg.dealias)


def _stacks(u0s: list, cfgs: list, equation: Equation) -> list:
    """``_advance`` over stacks of at most ``spectral._STACK_POINTS`` padded
    points, each of whole groups of ``len(equation.ks)`` rows, so no level's
    degrees are split."""
    return [result for rows in _row_chunks(len(u0s), equation.nbig, len(equation.ks))
            for result in _advance(u0s[rows], cfgs[rows], equation)]


def _step_constants(group_sym: np.ndarray, dt: float, if_rk4: bool) -> tuple:
    """The constants of a step of dt: ehalf, efull, then dt/2, dt/6, dt * ehalf
    and 2 ehalf (``if_rk4``) or the ETDRK4 weights q2, f1, 2 f2 and f3."""
    ehalf = np.exp(group_sym * (dt / 2.0))
    efull = ehalf * ehalf
    if if_rk4:
        return ehalf, efull, dt / 2.0, dt / 6.0, dt * ehalf, 2.0 * ehalf
    q2, f1, f2, f3 = _etdrk4_weights(group_sym * dt, dt)
    return ehalf, efull, q2, f1, 2.0 * f2, f3


@np.errstate(over="ignore", invalid="ignore")
def _advance(u0s: list, cfgs: list, equation: Equation) -> list:
    """The stepping loop over one stack of checked fields, row i under ``cfgs[i]``.

    The configs share ``equation``'s tag and dealias and one scheme; row i
    has degree ``equation.ks[i % D]``, D = len(ks).  They come in ascending
    step count, with the rows of one dt, step count and stride adjacent:
    each run of them is a level (D rows per level of a ladder) with one
    preallocated ``(rows, S, n/2+1)`` history, written at every stored
    step, whose rows become its trajectories.  The rows step in lockstep,
    in phases: a phase ends when a level's steps are done, and the level
    leaves the stack, whose state is then the suffix view of the rows still
    stepping, so row i keeps its degree.  Rows that share one dt share the
    step's constants, formed once as ``_step_constants``; rows of several
    dts each get theirs, formed alike and stacked, so each row is
    bit-for-bit its own solve.  Each phase owns its arrays: four flux and
    four stage arrays, a magnitude array for the blow-up test and the flux's
    transform work arrays are allocated once.  A blown-up row stays in the
    stack as zeros until its level leaves, so row i is always input i.  Each
    step writes into the arrays with ``out=``, in the operations and order
    of the schemes' plain expressions (kept in the comments), so every
    intermediate is bit-for-bit theirs.  The state is checked after every
    step, so numpy's overflow warnings are silenced.
    """
    grid, n = equation.grid, equation.n
    flux, group_sym = equation._flux, equation.symbol
    mul, add, absolute, peak = np.multiply, np.add, np.abs, np.maximum.reduce
    if_rk4 = cfgs[0].scheme == "if_rk4"
    dts = [cfg.dt for cfg in cfgs]
    constants = {dt: _step_constants(group_sym, dt, if_rk4) for dt in dict.fromkeys(dts)}

    state = np.array([u0.coeffs[: n // 2 + 1] for u0 in u0s])
    state[:, 0] = state[:, 0].real
    state[:, n // 2] = state[:, n // 2].real
    levels, first = [], 0  # (cfg, first row, rows, sample times, history) per level
    for _, run in itertools.groupby(cfgs, key=lambda c: (c.dt, c.n_steps(), c.sample_stride)):
        cfg, *others = run  # the level's rows differ in k at most
        rows = 1 + len(others)
        times = cfg.dt * np.arange(0, cfg.n_steps() + 1, cfg.sample_stride)
        history = np.empty((rows, len(times), n // 2 + 1), dtype=np.complex128)
        history[:, 0] = state[first: first + rows]
        levels.append((cfg, first, rows, times, history))
        first += rows

    results, done = [None] * len(u0s), 0
    for phase, (cfg, lo, _, _, _) in enumerate(levels):
        if None not in results[lo:]:
            break
        # one field keeps a 1-D state: the kernels' fast path for a single row.
        # Kept apart on purpose: on a 2-core Xeon VM, a one-row (1, n/2+1) stack
        # made a 10^4-step n = 256 gbo solve (400-point flux rows; the
        # conservation reference run when it stepped at dt = 1e-4) slower in 9 of
        # 10 alternating in-process pairs (median 1.06 s -> 1.46 s).
        uhat = state[lo] if lo == len(u0s) - 1 else state[lo:]
        if len(set(dts[lo:])) == 1:
            step_constants = constants[dts[lo]]
        else:
            step_constants = tuple(np.array(c)[:, None] if np.ndim(c[0]) == 0 else np.stack(c)
                                   for c in zip(*(constants[dt] for dt in dts[lo:])))
        if if_rk4:
            ehalf, efull, half_dt, sixth_dt, dt_ehalf, two_ehalf = step_constants
        else:
            ehalf, efull, q2, f1, two_f2, f3 = step_constants
        sinks = [(level_cfg.sample_stride, history, state[row: row + rows])
                 for level_cfg, row, rows, _, history in levels[phase:]]
        k1, k2, k3, k4, s1, s2, t, w = (np.empty_like(uhat) for _ in range(8))
        mag, work = np.empty(uhat.shape), equation._work(uhat.shape[:-1])
        steps = cfg.n_steps()
        for step in range(done + 1, steps + 1):
            if if_rk4:
                flux(uhat, k1, work)                       # a = N(uhat)
                mul(half_dt, k1, out=t)                    # ua = ehalf * (uhat + dt/2 * a)
                add(uhat, t, out=t)
                mul(ehalf, t, out=s1)
                flux(s1, k2, work)                         # b = N(ua)
                mul(ehalf, uhat, out=t)                    # ub = ehalf * uhat + dt/2 * b
                mul(half_dt, k2, out=s1)
                add(t, s1, out=s1)
                flux(s1, k3, work)                         # c = N(ub)
                mul(efull, uhat, out=w)                    # uc = efull * uhat + dt * ehalf * c,
                mul(dt_ehalf, k3, out=t)                   #   efull * uhat kept in w
                add(w, t, out=s1)
                flux(s1, k4, work)                         # d = N(uc)
                mul(efull, k1, out=t)                      # uhat = efull * uhat + dt/6 *
                add(k2, k3, out=s1)                        #   (efull * a + 2 ehalf * (b + c) + d)
                mul(two_ehalf, s1, out=s1)
                add(t, s1, out=t)
                add(t, k4, out=t)
                mul(sixth_dt, t, out=t)
                add(w, t, out=uhat)
            else:
                flux(uhat, k1, work)                       # n0 = N(uhat)
                mul(ehalf, uhat, out=w)                    # sa = ehalf * uhat + q2 * n0,
                mul(q2, k1, out=t)                         #   ehalf * uhat kept in w
                add(w, t, out=s1)
                flux(s1, k2, work)                         # na = N(sa)
                mul(q2, k2, out=t)                         # sb = ehalf * uhat + q2 * na
                add(w, t, out=s2)
                flux(s2, k3, work)                         # nb = N(sb)
                mul(2.0, k3, out=t)                        # sc = ehalf * sa + q2 * (2 nb - n0)
                np.subtract(t, k1, out=t)
                mul(q2, t, out=t)
                mul(ehalf, s1, out=s2)
                add(s2, t, out=s2)
                flux(s2, k4, work)                         # nc = N(sc)
                mul(efull, uhat, out=t)                    # uhat = efull * uhat + f1 * n0
                mul(f1, k1, out=s1)                        #   + 2 f2 * (na + nb) + f3 * nc
                add(t, s1, out=t)
                add(k2, k3, out=s1)
                mul(two_f2, s1, out=s1)
                add(t, s1, out=t)
                mul(f3, k4, out=s1)
                add(t, s1, out=uhat)
            # NaN propagates and fails; .max() would add numpy's Python wrapper per step
            if not peak(absolute(uhat, out=mag), axis=None) <= _BLOWUP_GUARD:
                blown = lo + np.flatnonzero(np.atleast_1d(~(mag.max(axis=-1) <= _BLOWUP_GUARD)))
                for row in blown:
                    results[row] = BlowUpError((step - 1) * dts[row])
                if None not in results[lo:]:
                    break
                state[blown] = 0.0
            for stride, history, rows in sinks:
                if step % stride == 0:
                    history[:, step // stride] = rows
        done = steps

    return [results[i] if results[i] is not None
            else Trajectory(grid, times, history[i - row], cfgs[i].equation, cfgs[i].k)
            for _, row, rows, times, history in levels for i in range(row, row + rows)]


@dataclass(frozen=True)
class ConvergenceResult:
    """Self-convergence study: errors against the finest run."""

    dts: tuple
    errors: tuple
    order: float
    exact: bool

    def __repr__(self):
        if self.exact:
            return "ConvergenceResult(exact: all errors < 1e-12)"
        return f"ConvergenceResult(order={self.order:.3f}, errors={self.errors})"


def convergence_order(u0: SpectralField, cfg: SolverConfig, n_levels: int = 4) -> ConvergenceResult:
    """Measure the time-stepping order by repeated step halving.

    Runs at dt, dt/2, ..., dt/2^(n_levels-1); the finest run is the
    reference, and the reported order is the least-squares slope of
    log(final-time L^2 error) against log(dt).  When every error is below
    1e-12 the result is flagged ``exact`` (linear runs hit this: the
    integrating factor is the exact propagator).
    """
    _check_values(_RULES, n_levels=n_levels)
    base_steps = replace(cfg, sample_stride=1).n_steps()
    # only the final state matters; sample just the endpoints
    cfgs = [replace(cfg, dt=cfg.dt / (2 ** lvl), sample_stride=base_steps * 2 ** lvl)
            for lvl in range(n_levels)]
    finals = []
    for result in _solve_levels(u0, cfgs):
        if isinstance(result, BlowUpError):
            raise result
        finals.append(result[-1])
    dts = [c.dt for c in cfgs]
    ref = finals[-1]
    circ = np.sqrt(u0.grid.circumference)
    errors = [
        float(circ * np.linalg.norm(f.coeffs - ref.coeffs)) for f in finals[:-1]
    ]
    if max(errors) < 1e-12:
        return ConvergenceResult(tuple(dts[:-1]), tuple(errors), float("nan"), True)
    slope = float(np.polyfit(np.log(dts[:-1]), np.log(errors), 1)[0])
    return ConvergenceResult(tuple(dts[:-1]), tuple(errors), slope, False)
