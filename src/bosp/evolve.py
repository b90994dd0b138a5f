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
k + 2 (3 for ``bo2``), where the flux and the renormalized mean of v^k are
exact at every k; ``two_thirds`` zeroes the flux modes |q| > n/3.
``SolverConfig``'s fields are the one place the solver's ``scheme`` and
``dealias`` defaults are written; ``Equation`` reads its default there.
The flux has one implementation, the closure ``Equation._flux`` built once
per equation, which writes into caller-owned arrays; ``nonlinear`` (so
``rhs``) is its allocating case.

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
is its one-field case with a 1-D ``(n/2+1,)`` state.  Rows never mix (every
transform and product acts along the last axis), so each row is bit-for-bit
the single-field solution.  A row blows up when, after a step, one of its
modes is non-finite or exceeds the magnitude guard: that row reports
``BlowUpError`` with the time before the step and is set to zero, which
the equations keep exactly zero, and the other rows go on.

A step allocates no stack-sized array.  Each stack gets its stage arrays,
a magnitude array for the blow-up test and the flux's transform work
arrays once; the stage arithmetic writes into them with ``out=`` in the
operations and order of the schemes' plain expressions, so every
intermediate, and every stored state, is bit-for-bit that of the
allocating form.  A step makes eight transforms of ``Equation.nbig``
points per row, four forward and four inverse, through ``spectral``'s
transform set ``_FFTS`` as it was when the ``Equation`` was built.
"""

from __future__ import annotations

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
    k + 2 (3 for ``bo2``) under ``alias_free``, else n (``two_thirds``).
    ``dealias`` defaults to ``SolverConfig``'s.
    """

    def __init__(self, grid: PeriodicGrid, equation: str, k: int = 1,
                 dealias: str = SolverConfig.dealias):
        _check_equation(equation, k)
        _check_values(_RULES, dealias=dealias)
        half = grid.n // 2
        self.grid, self.eq, self.k, self.n = grid, equation, k, grid.n
        self.symbol = _symbol(grid, "bo_group")[: half + 1]
        self.iq = _symbol(grid, "d_dx")[: half + 1]
        self.nbig = (_alias_free_points(grid.n, 3 if equation == "bo2" else k + 2)
                     if dealias == "alias_free" else grid.n)
        self.cut = grid.n // 3 + 1 if dealias == "two_thirds" else None
        self._flux = self._build_flux()

    def _work(self, lead: tuple) -> tuple:
        """Flux work arrays of a stack with leading shape ``lead``: values, Nyquist-split
        spectrum, power slots (values and a pair) and padded spectrum (none for linear)."""
        if self.eq == "linear":
            return ()
        vals = np.empty(lead + (self.nbig,))
        return (vals, np.empty(lead + (self.n // 2 + 1,), dtype=np.complex128),
                [vals, np.empty_like(vals), np.empty_like(vals)],
                np.empty(lead + (self.nbig // 2 + 1,), dtype=np.complex128))

    def _build_flux(self):
        """The dealiased flux ``flux(uhat, out, work) -> out`` of one row
        (n/2+1,) or a stack (..., n/2+1), with the transforms (of ``_FFTS``
        as it is now), powers and constants settled once.

        ``work`` comes from ``_work`` and is clobbered; ``out`` must not
        share memory with uhat or work.  When k + 1 is a power of two (k =
        1, 3, 7), dividing by it only shifts exponents, so gbo's
        ``iq * (flux / (k + 1))`` is bit for bit ``(iq / (k + 1)) * flux``
        unless a flux value is below 2^-1022 (k + 1), near subnormal.
        """
        eq, k, iq, cut = self.eq, self.k, self.iq, self.cut
        if eq == "linear":
            def flux(uhat, out, work):
                out.fill(0.0)
                return out
            return flux
        values, coeffs = _real_transforms(self.n, self.nbig)
        steps, last = _power_steps(2 if eq == "bo2" else k + 1)
        mean_steps, mean_last = _power_steps(k)
        folded = eq == "gbo" and not k & (k + 1)  # k + 1 a power of two
        iq = iq / (k + 1) if folded else iq
        divide, renormalized = eq == "gbo" and not folded, eq == "renormalized_gbo"
        mul = np.multiply

        def flux(uhat, out, work):
            vals, split, slots, spec = work
            values(uhat, vals, split)
            for a, b, dest in steps:
                mul(slots[a], slots[b], out=slots[dest])
            f = coeffs(slots[last], spec)
            if cut is not None:
                f[..., cut:] = 0.0
            if divide:
                np.divide(f, k + 1, out=f)
            elif renormalized:
                # 2 M(v^k) v_x = d_x(2 v^{k+1}/(k+1) - 2 mean(v^k) v)
                for a, b, dest in mean_steps:
                    mul(slots[a], slots[b], out=slots[dest])
                mean = np.mean(slots[mean_last], axis=-1, keepdims=True)
                mul(2.0, f, out=f)
                np.divide(f, k + 1, out=f)
                np.subtract(f, mul(2.0 * mean, uhat, out=out), out=f)
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
    grid = _check_one_grid(u0s, "solve")
    coeffs = np.array([u0.coeffs for u0 in u0s])
    _check_real(coeffs, "solve")
    if cfg.equation == "renormalized_gbo":
        _check_zero_mean(coeffs, "the renormalized equation")
    equation = Equation(grid, cfg.equation, cfg.k, cfg.dealias)
    return [result for rows in _row_chunks(len(u0s), equation.nbig)
            for result in _advance(u0s[rows], cfg, equation)]


@np.errstate(over="ignore", invalid="ignore")
def _advance(u0s: list, cfg: SolverConfig, equation: Equation) -> list:
    """The stepping loop of ``solve_batch`` over one stack of checked fields.

    The stack owns its arrays: four flux and four stage arrays, a magnitude
    array for the blow-up test and the flux's transform work arrays are
    allocated once.  A blown-up row stays in the stack as zeros, so row i
    is always input i.  Each step writes into them with ``out=``, in the
    operations and order of the schemes' plain expressions (kept in the
    comments), so every intermediate is bit-for-bit theirs; constants of
    the step are formed once.  Every stored step writes the state into one
    preallocated ``(B, S, n/2+1)`` history, whose rows become the
    trajectories.  The state is checked after every step, so numpy's
    overflow warnings are silenced.
    """
    grid, n = equation.grid, equation.n
    steps, stride = cfg.n_steps(), cfg.sample_stride
    flux, group_sym = equation._flux, equation.symbol
    mul, add, absolute, peak = np.multiply, np.add, np.abs, np.maximum.reduce
    dt = cfg.dt
    if_rk4 = cfg.scheme == "if_rk4"

    ehalf = np.exp(group_sym * (dt / 2.0))
    efull = ehalf * ehalf
    if if_rk4:
        half_dt, sixth_dt, dt_ehalf, two_ehalf = dt / 2.0, dt / 6.0, dt * ehalf, 2.0 * ehalf
    else:
        q2, f1, f2, f3 = _etdrk4_weights(group_sym * dt, dt)
        two_f2 = 2.0 * f2

    # one field keeps a 1-D state: the kernels' fast path for a single row.
    # Kept apart on purpose: on a 2-core Xeon VM, a one-row (1, n/2+1) stack
    # made bosp conservation (10^4 steps at n = 256, 400-point flux rows)
    # slower in 9 of 10 alternating in-process pairs (median 1.06 s -> 1.46 s).
    uhat = np.array([u0.coeffs[: n // 2 + 1] for u0 in u0s])
    if len(u0s) == 1:
        uhat = uhat[0]
    uhat[..., 0] = uhat[..., 0].real
    uhat[..., n // 2] = uhat[..., n // 2].real
    results = [None] * len(u0s)
    times = dt * np.arange(0, steps + 1, stride)
    history = np.empty((len(u0s), len(times), n // 2 + 1), dtype=np.complex128)
    history[:, 0] = uhat
    t_good = 0.0

    k1, k2, k3, k4, s1, s2, t, w = (np.empty_like(uhat) for _ in range(8))
    mag, work = np.empty(uhat.shape), equation._work(uhat.shape[:-1])
    for step in range(1, steps + 1):
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
            blown = np.flatnonzero(np.atleast_1d(~(mag.max(axis=-1) <= _BLOWUP_GUARD)))
            for row in blown:
                results[row] = BlowUpError(t_good)
            if None not in results:
                return results
            uhat[blown] = 0.0
        t_good = step * dt
        if step % stride == 0:
            history[:, step // stride] = uhat

    return [Trajectory(grid, times, history[r], cfg.equation, cfg.k) if result is None else result
            for r, result in enumerate(results)]


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
    finals = []
    dts = []
    base_steps = replace(cfg, sample_stride=1).n_steps()
    for lvl in range(n_levels):
        dt = cfg.dt / (2 ** lvl)
        # only the final state matters; sample just the endpoints
        cfg_lvl = replace(cfg, dt=dt, sample_stride=base_steps * 2 ** lvl)
        traj = solve(u0, cfg_lvl)
        finals.append(traj[-1])
        dts.append(dt)
    ref = finals[-1]
    circ = np.sqrt(u0.grid.circumference)
    errors = [
        float(circ * np.linalg.norm(f.coeffs - ref.coeffs)) for f in finals[:-1]
    ]
    if max(errors) < 1e-12:
        return ConvergenceResult(tuple(dts[:-1]), tuple(errors), float("nan"), True)
    slope = float(np.polyfit(np.log(dts[:-1]), np.log(errors), 1)[0])
    return ConvergenceResult(tuple(dts[:-1]), tuple(errors), slope, False)
