"""Time integration of the dispersive model equations in Fourier space.

Equations (all on the 2*pi*lam circle, H the Hilbert transform):

    linear            u_t + H u_xx = 0        (the free group: mu = 0 below)
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
``lingroup.group_symbol`` serves too.  Its nonlinear terms are in
conservative form mu/(k+1) d_x(u^{k+1} - (k+1) mean(u^k) u), mu from
``_MU`` and the mean term the renormalized equation's, so the mean mode is
conserved to round-off, and products are dealiased by one of two rules.
Every tag takes this one flux: the linear equation is its mu = 0 member,
whose flux is formed like any other and multiplied by zero, so every
stored state has the values a zero flux gives, though a mode that stays
zero may store a zero of either sign (``lingroup.propagate`` is the free
group without stepping).
The default, ``alias_free``, forms them on the smallest 5-smooth grid of
N >= (k + 2) n/2 points, where the flux and the renormalized mean of v^k
are exact at every k (``Equation``: the flux keeps no slot n/2, so it needs
one point fewer than ``spectral``'s strict rule of degree k + 2);
``two_thirds`` zeroes the flux modes |q| > n/3.
``SolverConfig``'s fields are the one place the solver's ``scheme`` and
``dealias`` defaults are written; ``Equation`` reads its default there.
The flux has one implementation, the closure ``Equation._flux``, built once
per equation on its ``nbig`` points, which takes each row's degree with its
work arrays (``Equation._work``) and writes into caller-owned arrays;
``nonlinear`` (so ``rhs``) is its allocating case.

Solver state is the split rfft half spectrum: modes m = 0, 1, ..., n/2 of
a real field, the negative modes being their conjugates, split as real
synthesis takes it (``spectral._split``: the slot n/2 halved when the flux
is padded, ``Equation.nbig`` > n).  The imaginary parts of the mean and
Nyquist slots are zeroed once on entry; the odd symbols (iq, the bo group
symbol) vanish on the Nyquist slot, so it is constant in time.  So
``_advance`` checks it against the blow-up guard, writes it into every
stored state and splits the state once, on entry, and the flux
synthesizes the state as it is with the bare transform pair of
``spectral`` (``_real_transforms``), which owns the zero-padding; the fold
of -n/2 into +n/2 after analysis is left out, since iq, so the flux, is
zero on that slot whatever the fold writes there.  The stored states are
the rows of the trajectory's half-spectrum stack, unsplit; indexing the
Trajectory expands a row to the full transform-order SpectralField,
exactly conjugate symmetric.

The stepper has one way in, ``_solve``, which steps row j as field j under
config j: ``solve_batch`` is its case of one config (B fields on one grid
as a ``(B, n/2+1)`` stack), ``solve`` that of one field, and
``convergence_order`` passes one field under a step-halving ladder of
configs that differ in dt, step count or sample stride.  The configs share
equation, scheme and dealias; each row has its own degree k, dt, step count
and stride, so ``experiments``' conservation steps its k = 1 reference run
beside the step-halving ladders of its order study's degrees ``e_ks`` as
one stack.  The rows step in lockstep, each with its own step constants,
on the largest degree's alias-free grid, where every degree's flux is
exact, and one inverse and one forward transform per stage serve them all.
A row leaves the stack once its steps are done; a lone field, like the
last row left, steps as a one-row ``(1, n/2+1)`` stack.  Rows never mix
(every transform and product acts along the last axis), so each row is
bit-for-bit the single-field solution on the stack's grid: a one-degree
stack's rows are ``solve``'s, and a smaller degree's rows move by
round-off from its own grid's.  A row blows up when, after a step, one of
its modes is non-finite or exceeds the magnitude guard: that row reports
``BlowUpError`` with its time before the step and is set to zero, which
the equations keep exactly zero, and the other rows go on.

A step allocates no stack-sized array.  The state is degree-major, and
when rows leave, the rows still stepping are copied into a fresh one, so
each degree's rows are a contiguous slice.  Each phase of a stack (between
two sets of rows leaving it) gets its step constants, stage arrays, a
magnitude array for the blow-up test and the flux's transform work arrays,
with each row's iq, once; every step and flux constant is a per-row
``(rows, n/2+1)`` array, the state's shape.  The stage arithmetic writes
into them with ``out=`` in the operations and order of the schemes' plain
expressions, so every intermediate, and every stored state, is
bit-for-bit that of the allocating form, but for the sign of the zero the
flux writes on the slot n/2, which no stored state takes.  A step makes eight transform calls on
the whole stack, four forward and four inverse, of ``Equation.nbig``
points per row, and no other stack-wide call for the Nyquist slot: the
calls are those of ``spectral``'s transform set ``_FFTS`` as it was when
the ``Equation`` was built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError
from .spectral import (_POSITIVE, PeriodicGrid, SpectralField, Trajectory, _Rule,
                       _check_equation, _check_one_grid, _check_real, _check_values,
                       _check_zero_mean, _choice, _finite, _full_spectrum, _integer,
                       _power_steps, _real_transforms, _row_chunks, _smooth_points, _split,
                       _symbol)

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
    where the flux is exact, ``Equation.nbig``, the smallest 5-smooth size
    >= (k + 2) n/2) or ``two_thirds`` (flux modes |q| > n/3 zeroed).  These
    fields are the one place the solver's defaults are written.
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


# mu of each equation's flux d_x(mu u^{k+1} / (k + 1)); the free equation is mu = 0
_MU = {"linear": 0.0, "gbo": 1.0, "bo2": 2.0, "renormalized_gbo": 2.0}


class Equation:
    """Right-hand side u_t = symbol * u_hat + N(u_hat) of one tagged equation.

    ``symbol`` is the bo group symbol and ``nonlinear`` the dealiased
    conservative flux, both on the half spectrum (modes 0..n/2 along the
    last axis of a stack); the odd symbols zero the Nyquist slot.  ``rhs``
    expands their sum to the full transform order.  The stepper calls the
    flux closure ``_flux`` on its split state with arrays of its own
    (``_work``), which also carry each row's degree; ``nonlinear`` splits
    its argument first.  ``nbig`` is the points per row the flux is formed
    on: under ``alias_free`` the smallest 5-smooth size >= (k + 2) n/2,
    else n (``two_thirds``).  That is the least size where the flux is
    exact: u^{k+1} reaches mode (k + 1) n/2, and on N points the kept slots
    m <= n/2 - 1 take the aliases of modes m - N, below -(k + 1) n/2 once N
    >= (k + 2) n/2.  The slot n/2 does take an alias, but iq, so each row's
    constant iq mu / (k + 1), is zero there.  ``multiply`` and the gauge keep
    that slot, so they need ``spectral._alias_free_points``' one point more.
    ``dealias`` defaults to ``SolverConfig``'s.  Every tag takes this flux;
    linear's mu is 0, so its flux is zero, each zero of either sign.  A
    grid whose lam is so small that the bo group symbol overflows a float
    is refused by the rule of ``lam``.
    """

    def __init__(self, grid: PeriodicGrid, equation: str, k: int = 1,
                 dealias: str = SolverConfig.dealias):
        _check_equation(equation, k)
        _check_values(_RULES, dealias=dealias)
        half = grid.n // 2
        top = float(grid.freqs[half])  # the largest |q|, whose q|q| a small lam overflows
        _Rule(lambda lam: _finite(top * top),
              "such that the bo group symbol q|q| is finite on this grid").check("lam", grid.lam)
        self.grid, self.eq, self.k, self.n = grid, equation, k, grid.n
        self.symbol = _symbol(grid, "bo_group")[: half + 1]
        self.iq = _symbol(grid, "d_dx")[: half + 1]
        self.nbig = _smooth_points((k + 2) * grid.n // 2) if dealias == "alias_free" else grid.n
        self.cut = grid.n // 3 + 1 if dealias == "two_thirds" else None
        self._flux = self._build_flux()

    def _work(self, ks) -> tuple:
        """Flux work arrays of a ``(len(ks), ...)`` stack whose rows have the
        degrees ``ks``, one per row, each degree's rows adjacent: values, the
        powers, padded spectrum, its half spectrum (the first n/2+1 slots, a
        view), every row's flux constant ``iq * mu / (k + 1)`` (mu from
        ``_MU``), and per degree its chain of power steps on its slots
        (values, powers and a spare), and for the renormalized equation its
        rows, flux rows, k + 1 and its mean's chain.  A degree's slots and
        flux rows are its contiguous row slice of the stack's arrays, and
        its power lands in the powers' rows.  No array
        holds a split copy of the state: the state comes split."""
        vals = np.empty((len(ks), self.nbig))
        powers, spare = np.empty_like(vals), np.empty_like(vals)
        spec = np.empty((len(ks), self.nbig // 2 + 1), dtype=np.complex128)
        half = spec[:, : self.n // 2 + 1]
        iq = np.empty(half.shape, dtype=np.complex128)
        chains, renormalized, first = [], [], 0
        for k, run in itertools.groupby(ks):
            rows = slice(first, first + len(list(run)))
            first = rows.stop
            slots = [a[rows] for a in (vals, powers, spare)]
            # the chain after its first step, (0, 0, 1), with its last product into slot 1
            rest = _power_steps(k + 1)[0][1:]
            chains.append((slots, rest[:-1] + tuple((a, b, 1) for a, b, _ in rest[-1:])))
            if self.eq == "renormalized_gbo":
                renormalized.append((rows, slots, half[rows], k + 1, *_power_steps(k)))
            iq[rows] = self.iq * _MU[self.eq] / (k + 1)
        return vals, powers, spec, half, iq, chains, renormalized

    def _build_flux(self):
        """The dealiased flux ``flux(uhat, out, work) -> out`` of a split
        stack (rows, n/2+1), one field a one-row stack, with the transforms
        (the ``irfft`` and sized ``rfft`` of ``_FFTS`` as it is now) settled
        once.

        ``uhat`` is the stepper's state: when nbig > n its slot n/2 is
        already halved, and the flux synthesizes it as it is, with no split
        multiply.  The analysis leaves -n/2 unfolded: each row's constant iq
        mu / (k + 1) is zero on the slot n/2, so the flux there is a zero
        whose sign alone the fold would set.  ``work`` comes from ``_work``,
        which sets each row's degree, and is clobbered; ``out`` must not
        share memory with uhat or work.  One inverse and one forward
        transform serve the whole stack, and so does one squaring of the
        values, which every degree's chain of ``_power_steps`` begins with;
        the rest of each degree's chain, its last product into the powers
        and any renormalized mean act on its rows.  Where a product lands
        does not change its value, so the flux is bit for bit the chain run
        alone.  Every row then takes one multiply by its constant from
        ``_work``: ``iq mu / (k + 1) (v^{k+1} - (k + 1) mean(v^k) v)``, the
        mean term for the renormalized equation only.
        """
        cut = self.cut
        values, coeffs = _real_transforms(self.nbig)
        mul = np.multiply

        def flux(uhat, out, work):
            vals, powers, spec, f, iq, chains, renormalized = work
            values(uhat, vals)
            mul(vals, vals, out=powers)
            for s, steps in chains:
                for a, b, dest in steps:
                    mul(s[a], s[b], out=s[dest])
            coeffs(powers, spec)
            if cut is not None:
                f[..., cut:] = 0.0
            for rows, s, f_d, k1, mean_steps, mean_last in renormalized:
                # 2 M(v^k) v_x = d_x(2/(k+1) (v^{k+1} - (k+1) mean(v^k) v))
                for a, b, dest in mean_steps:
                    mul(s[a], s[b], out=s[dest])
                mean = np.mean(s[mean_last], axis=-1, keepdims=True)
                np.subtract(f_d, mul(k1 * mean, uhat[rows], out=out[rows]), out=f_d)
            return mul(iq, f, out=out)

        return flux

    def nonlinear(self, uhat: np.ndarray) -> np.ndarray:
        """The dealiased flux of a half-spectrum stack (..., n/2+1), as a new
        array: ``_flux`` of its split copy (slot n/2 halved when nbig > n) as
        rows of degree k, one field a one-row stack, reshaped back."""
        rows = uhat.reshape(-1, uhat.shape[-1])
        out = self._flux(_split(rows, self.nbig), np.empty(rows.shape, dtype=np.complex128),
                         self._work([self.k] * len(rows)))
        return out.reshape(uhat.shape)

    def rhs(self, uhat: np.ndarray) -> np.ndarray:
        """u_t of a half-spectrum stack (..., n/2+1), in full transform order (..., n)."""
        return _full_spectrum(self.symbol * uhat + self.nonlinear(uhat), self.n)


def _etdrk4_weights(z: np.ndarray, dt: float):
    """Cox-Matthews coefficients via contour averaging around each z."""
    theta = np.exp(2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS)
    zr = z[:, None] + theta[None, :]
    ez = np.exp(zr)
    q2 = (np.exp(zr / 2.0) - 1.0) / zr
    zr2, zr3 = zr * zr, zr**3
    f1 = (-4.0 - zr + ez * (4.0 - 3.0 * zr + zr2)) / zr3
    f2 = (2.0 + zr + ez * (zr - 2.0)) / zr3
    f3 = (-4.0 - 3.0 * zr - zr2 + ez * (4.0 - zr)) / zr3
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
    ``solve``'s conditions, all checked before any step: this is
    ``_solve`` under one config.
    """
    u0s = list(u0s)
    return _solve(u0s, [cfg] * len(u0s))


def _solve(u0s: list, cfgs: list) -> list:
    """The one way into the stepper: entry j is the Trajectory or BlowUpError
    of ``u0s[j]`` under ``cfgs[j]``, as ``solve`` gives it on the stack's grid.

    The fields are checked first (one grid, real, zero mean for the
    renormalized equation), then the configs: they share equation, scheme
    and dealias, and each has a whole step count (``n_steps``); their
    degrees, dts, step counts and strides may differ.  The stack is formed
    on the largest degree's ``Equation.nbig`` points, so the rows of the
    largest degree are bit for bit ``solve``'s and a smaller degree's move
    by round-off.  This is the one place the rows are ordered and stacked:
    the coefficient stack that the checks read is sorted once by
    ``_block_key``, so degree-major, and its slices of at most
    ``spectral._STACK_POINTS`` padded points go through ``_advance``, whose
    results come back in stack order.
    """
    if not u0s:
        return []
    grid = _check_one_grid(u0s, "solve")
    coeffs = np.array([u0.coeffs for u0 in u0s])
    _check_real(coeffs, "solve")
    first = cfgs[0]
    if first.equation == "renormalized_gbo":
        _check_zero_mean(coeffs, "the renormalized equation")
    for cfg in cfgs:
        if (cfg.equation, cfg.scheme, cfg.dealias) != (first.equation, first.scheme,
                                                       first.dealias):
            raise ValueError(f"levels stepped as one stack must share equation, scheme and "
                             f"dealias: {cfg} and {first} differ")
    order = sorted(range(len(cfgs)), key=lambda j: _block_key(cfgs[j]))
    stack, cfgs = coeffs[order], [cfgs[j] for j in order]
    equation = Equation(grid, first.equation, max(cfg.k for cfg in cfgs), first.dealias)
    stepped = [result for rows in _row_chunks(len(cfgs), equation.nbig)
               for result in _advance(stack[rows], cfgs[rows], equation)]
    return [stepped[i] for i in np.argsort(order)]


def _block_key(cfg: SolverConfig) -> tuple:
    """What the rows of one ``_advance`` block share: degree, step count, dt and stride."""
    return cfg.k, cfg.n_steps(), cfg.dt, cfg.sample_stride


def _step_constants(group_sym: np.ndarray, dt: float, if_rk4: bool) -> np.ndarray:
    """The constants of a step of dt as the rows of one complex (6, n/2+1)
    array: ehalf, efull, then dt/2, dt/6, dt * ehalf and 2 ehalf (``if_rk4``)
    or the ETDRK4 weights q2, f1, 2 f2 and f3.  numpy multiplies a float dt/2
    or dt/6 into a complex array by casting it to complex, so as complex
    rows they give bit for bit the same products."""
    ehalf = np.exp(group_sym * (dt / 2.0))
    efull = ehalf * ehalf
    if if_rk4:
        constants = ehalf, efull, dt / 2.0, dt / 6.0, dt * ehalf, 2.0 * ehalf
    else:
        q2, f1, f2, f3 = _etdrk4_weights(group_sym * dt, dt)
        constants = ehalf, efull, q2, f1, 2.0 * f2, f3
    return np.array(np.broadcast_arrays(*constants), dtype=np.complex128)


@np.errstate(over="ignore", invalid="ignore")
def _advance(coeffs: np.ndarray, cfgs: list, equation: Equation) -> list:
    """The stepping loop over one coefficient stack ``(rows, n)`` that
    ``_solve`` checked and ordered, row i under ``cfgs[i]``, with
    ``equation``'s flux formed on points exact for every row's degree;
    entry i of the result is row i's Trajectory or BlowUpError.

    The configs share ``equation``'s tag and dealias and one scheme; their
    degrees, dts, step counts and strides are free.  The rows come sorted
    by ``_block_key``: degree-major, and within a degree by step count, dt
    and stride.  Each run of rows of one key is a block with one
    preallocated ``(rows, S, n/2+1)`` history, written at every stored
    step, whose rows become its trajectories.  The rows step in lockstep,
    in phases: a phase ends when a block's steps are done, and the block
    leaves the stack.  The state is degree-major, and once a block leaves
    the rows still stepping are copied into a fresh one, so each degree's
    rows and each block's are a contiguous slice of it.  Each phase builds
    its arrays once: the step constants as complex ``(rows, n/2+1)``
    arrays, each row its own dt's ``_step_constants`` (so each row is
    bit-for-bit its own solve, and no constant broadcasts against the
    state), the flux's work arrays with each row's iq and each degree's
    slots (``Equation._work``), four flux and four stage arrays and a
    magnitude array for the blow-up test.  A blown-up row stays in the
    stack as zeros until its block leaves.  Each
    step writes into the arrays with ``out=``, in the operations and order
    of the schemes' plain expressions (kept in the comments), so every
    intermediate is bit-for-bit theirs.  The state is checked after every
    step, so numpy's overflow warnings are silenced.

    The slot n/2 is constant in time (the odd symbols and the flux vanish
    there), so it is settled on entry: a row whose slot n/2 exceeds the
    magnitude guard blows up at time 0, as its first step would find; each
    block's history takes the entry value of that slot at every stored
    step, so a step writes only the modes below it; and the state becomes
    its ``spectral._split``, the split that the flux's synthesis takes as
    given.
    """
    grid, n = equation.grid, equation.n
    flux, group_sym = equation._flux, equation.symbol
    mul, add, absolute, peak = np.multiply, np.add, np.abs, np.maximum.reduce
    if_rk4 = cfgs[0].scheme == "if_rk4"

    ks, dts = [cfg.k for cfg in cfgs], [cfg.dt for cfg in cfgs]
    constants = {dt: _step_constants(group_sym, dt, if_rk4) for dt in dict.fromkeys(dts)}
    nyq = n // 2
    state = np.array(coeffs[:, : nyq + 1])
    state[:, 0] = state[:, 0].real
    state[:, nyq] = state[:, nyq].real
    results = [None] * len(cfgs)
    for p in np.flatnonzero(~(np.abs(state[:, nyq]) <= _BLOWUP_GUARD)):
        results[p] = BlowUpError(0.0)
        state[p] = 0.0
    blocks, first = [], 0  # (cfg, steps, first row, sample times, history) per block
    for (_, steps, dt, stride), run in itertools.groupby(cfgs, key=_block_key):
        rows = len(list(run))
        times = dt * np.arange(0, steps + 1, stride)
        history = np.empty((rows, len(times), nyq + 1), dtype=np.complex128)
        history[:, 0] = state[first: first + rows]
        history[:, 1:, nyq] = state[first: first + rows, nyq, None]
        blocks.append((cfgs[first], steps, first, times, history))
        first += rows
    uhat = _split(state, equation.nbig)

    live, done = np.arange(len(cfgs)), 0  # live: the stack rows the state holds
    for steps in sorted({block[1] for block in blocks}):
        stepping = [block for block in blocks if block[1] >= steps]
        kept = np.concatenate([first + np.arange(len(history))
                               for _, _, first, _, history in stepping])
        if all(results[p] is not None for p in kept):
            break
        if len(kept) < len(live):
            uhat, live = uhat[np.searchsorted(live, kept)], kept
        # every constant has the state's shape: a (n/2+1,) constant times a
        # (rows, n/2+1) stack takes numpy's broadcasting loop, 0.97 us a product
        # against 0.50 us same-shape for one row of 129 modes, 6.0 against
        # 3.1 us for 75 rows of 65 (numpy 2.4, best of 15, 2-core Xeon VM)
        step_constants = np.stack([constants[dts[p]] for p in live], axis=1)
        if if_rk4:
            ehalf, efull, half_dt, sixth_dt, dt_ehalf, two_ehalf = step_constants
        else:
            ehalf, efull, q2, f1, two_f2, f3 = step_constants
        sinks, row = [], 0
        for cfg, _, _, _, history in stepping:
            sinks.append((cfg.sample_stride, history[..., :nyq],
                          uhat[row: row + len(history), :nyq]))
            row += len(history)
        k1, k2, k3, k4, s1, s2, t, w = (np.empty_like(uhat) for _ in range(8))
        mag, work = np.empty(uhat.shape), equation._work([ks[p] for p in live])
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
                blown = np.flatnonzero(~(mag.max(axis=-1) <= _BLOWUP_GUARD))
                for row in blown:
                    results[live[row]] = BlowUpError((step - 1) * dts[live[row]])
                if all(results[p] is not None for p in live):
                    break
                uhat[blown] = 0.0
            for stride, history, rows in sinks:
                if step % stride == 0:
                    history[:, step // stride] = rows
        done = steps

    for cfg, _, first, times, history in blocks:
        for row, p in enumerate(range(first, first + len(history))):
            if results[p] is None:
                results[p] = Trajectory(grid, times, history[row], cfg.equation, cfg.k)
    return results


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
    for result in _solve([u0] * n_levels, cfgs):
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
