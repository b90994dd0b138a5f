"""Conserved quantities, drift reports, space-time norms and dilations.

The model equations conserve the mean I(u) = integral u, the mass
M(u) = integral u^2, and a higher functional depending on the equation:

* for u_t + H u_xx = u u_x the weighted functional
  F(u) = integral u_x^2 - (3/4) u^2 H(u_x) + (1/8) u^4,
* for u_t + H u_xx = u^k u_x the energy
  E_k(u) = integral (1/2) |D^{1/2} u|^2 - u^{k+2} / ((k+1)(k+2)).

Each sign is pinned by a variational computation: writing dF/dt =
integral u_t * (dF/du) along the flow and solving the resulting linear
system over random fields leaves exactly one coefficient choice with an
identically vanishing derivative (a = 3/4, b = -1/8 in
F = int u_x^2 - a u^2 H u_x - b u^4 for the u u_x right-hand side, matching
the classical integrable normalization after u -> -u/2).  For bo2,
u_t + H u_xx = 2 u u_x, ``drift_report`` evaluates F at 2u, which solves
the u u_x equation.  The ``sign`` argument flips the odd term, which is the
convention conserved by the mirror equation u_t + H u_xx = -u^k u_x; the
drift separation test in the suite re-checks the selection on a reference
run.  Quadratic pieces use Parseval exactly.  The quartic terms of F and
the u^{k+2} term of E_k are summed on ``spectral._alias_free_points(n,
max(4, k + 2))`` points, more than the integrand's top mode max(4, k+2)*n/2,
so the quadrature is exact for every k (n = 2048 at k <= 2 takes 4320
points).  F and E_k share that grid.  F's pair u, H u_x, two real fields,
comes from one padded complex inverse transform (its real and imaginary
parts), which also gives E_1 its u when both are evaluated; E_k alone
synthesizes u by the real transform.  Along a trajectory they are evaluated
on the half-spectrum stack, each snapshot's values bit-identical to the same
functionals of that snapshot alone.
So are the mixed space-time norms: each is one per-row reduction of the
trajectory's stack, with no field built per snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _RULES as _SPECTRAL_RULES
from .spectral import (PeriodicGrid, SpectralField, Trajectory, _Rule, _alias_free_points,
                       _check_gauge_variant, _check_real, _choice, _finite, _full_spectrum,
                       _integer, _lp_norms, _parseval_norms, _power, _real_pair_synthesis,
                       _real_values, _refusing_overflow, _row_chunks, _symbol)

__all__ = [
    "invariant",
    "InvariantReport",
    "drift_report",
    "xnorm",
    "xnorm_series",
    "dilate",
]

_DRIFT_FLOOR = 1e-8


def invariant(f, which: str, k: int = 1, sign: float = 1.0):
    """Evaluate a conserved functional on a real field, or along a trajectory.

    which:
      ``I``     -- integral u,
      ``M``     -- integral u^2,
      ``F_bo``  -- integral u_x^2 - sign*(3/4) u^2 H(u_x) + (1/8) u^4,
      ``E_gbo`` -- integral (1/2)|D^{1/2}u|^2 - sign * u^{k+2}/((k+1)(k+2)).

    A SpectralField gives a float, a Trajectory one value per snapshot.

    ``sign=1`` is the convention conserved by u_t + H u_xx = u^k u_x;
    ``sign=-1`` selects the mirror convention (conserved when the
    right-hand side carries the opposite sign), used by the separation
    tests; ``sign`` is 1 or -1, and ``k`` an integer >= 1 (spectral's rule).
    """
    _choice("I", "M", "F_bo", "E_gbo").check("which", which)
    _SPECTRAL_RULES["k"].check("k", k)
    _Rule(lambda v: _finite(v) and v in (1, -1), "1 or -1").check("sign", sign)
    if isinstance(f, Trajectory):
        return _series(f.grid, f.half_coeffs, (which,), k, sign)[which]
    _check_real(f.coeffs, "invariant")
    return float(_series(f.grid, f.coeffs[None, : f.grid.n // 2 + 1], (which,), k, sign)[which][0])


def _series(grid: PeriodicGrid, half: np.ndarray, names, k: int = 1,
            sign: float = 1.0) -> dict:
    """The named invariants of the real fields with half spectra ``half`` (S, n/2+1).

    Parseval sums run over the half spectra, each mode 0 < m < n/2 weighted
    2 for its conjugate, in blocks of at most ``_STACK_POINTS`` coefficients:
    at n = 2048 and 1001 rows, |c|^2 and three sums took 5.5 ms in blocks of
    15 rows against 8.4 ms over the whole stack or in 3-row chunks (2-core
    Xeon VM, numpy 2.4).  The quadratures run on rows in chunks of at most
    ``_STACK_POINTS`` padded points, on the alias-free grid of degree
    max(4, k + 2).  With F_bo, one complex synthesis per chunk
    (``_real_pair_synthesis``) gives u as its real part and H u_x as its
    imaginary part, and u^2 serves u^2 H u_x, u^4 and, at k = 1, u^3; E_gbo
    alone synthesizes u by ``_real_values``.  No sum mixes rows, so each
    row is bit for bit the one its snapshot gives alone under the same names.
    """
    circ, h = grid.circumference, grid.n // 2 + 1
    q = np.abs(grid.freqs[:h])
    weights = np.full(h, 2.0)
    weights[[0, -1]] = 1.0
    quadratic = {"M": weights, "F_bo": weights * q ** 2, "E_gbo": 0.5 * weights * q}
    nbig = _alias_free_points(grid.n, max(4, k + 2))
    hdx = _symbol(grid, "hilbert_dx")[:h]

    def means() -> dict:
        """circ times the per-row means of F_bo's u^2 H u_x and u^4 and of E_gbo's u^(k+2)."""
        paired, energy = "F_bo" in names, "E_gbo" in names
        parts, chunks = {}, _row_chunks(len(half), nbig)
        if paired:
            pair_values = _real_pair_synthesis(hdx, nbig, len(half[chunks[0]]))
        for rows in chunks if paired or energy else ():
            if paired:
                pair = pair_values(half[rows])
                u = pair.real
                u2 = u * u
                integrands = {"u2 hux": u2 * pair.imag, "u4": u2 * u2}
            else:
                u, integrands = _real_values(half[rows], nbig), {}
            if energy:
                integrands["power"] = u2 * u if paired and k == 1 else _power(u, k + 2)
            for key, integrand in integrands.items():
                parts.setdefault(key, []).append(circ * np.mean(integrand, axis=-1))
        return {key: np.concatenate(pieces) for key, pieces in parts.items()}

    def series() -> tuple:
        parts = {name: [] for name in names}
        for rows in _row_chunks(len(half), h):
            c = half[rows]
            abs2 = np.abs(c) ** 2
            for name in names:
                parts[name].append(circ * (c[:, 0].real if name == "I"
                                           else np.sum(quadratic[name] * abs2, axis=-1)))
        values, nonquadratic = {name: np.concatenate(parts[name]) for name in names}, means()
        if "F_bo" in names:
            values["F_bo"] = (values["F_bo"] - sign * 0.75 * nonquadratic["u2 hux"]
                              + 0.125 * nonquadratic["u4"])
        if "E_gbo" in names:
            values["E_gbo"] = values["E_gbo"] - sign * (nonquadratic["power"] / ((k + 1) * (k + 2)))
        return tuple(values.values())
    return dict(zip(names, _refusing_overflow(names, half, series)))


@dataclass(frozen=True)
class InvariantReport:
    """Values of the tag-appropriate invariants along a trajectory.

    ``drifts[name]`` is max_t |val(t) - val(0)| / max(|val(0)|, 1e-8).
    """

    equation: str
    k: int
    times: np.ndarray
    values: dict
    drifts: dict


def _invariant_set(equation: str, k: int):
    if equation == "linear":
        return ("I", "M")
    if equation == "bo2":
        return ("I", "M", "F_bo")
    if equation == "gbo":
        return ("I", "M", "F_bo", "E_gbo") if k == 1 else ("I", "M", "E_gbo")
    return ("I", "M")  # renormalized_gbo conserves both


def drift_report(traj: Trajectory) -> InvariantReport:
    """Evaluate the invariants of the trajectory's equation at every sample."""
    names = _invariant_set(traj.equation, traj.k)
    if traj.equation == "bo2":
        # 2u solves u_t + H u_xx = u u_x when u solves bo2, so F_bo is taken at 2u
        values = _series(traj.grid, traj.half_coeffs, ("I", "M"))
        values |= _series(traj.grid, 2.0 * traj.half_coeffs, ("F_bo",))
    else:
        values = _series(traj.grid, traj.half_coeffs, names, traj.k)
    drifts = {}
    for name, series in values.items():
        ref = series[0]
        drifts[name] = float(np.max(np.abs(series - ref)) / max(abs(ref), _DRIFT_FLOOR))
    return InvariantReport(traj.equation, traj.k, traj.times.copy(), values, drifts)


def xnorm_series(times, coeffs, grid: PeriodicGrid, level: int) -> float:
    """Mixed space-time norm of a sampled field sequence, one coefficient row per time.

    ``coeffs`` is an (S, n) stack in transform order on ``grid``; the norm is
    the one of ``xnorm``, reduced over the whole stack.  Exactly conjugate-
    symmetric stacks are synthesized as real fields, any other as complex.
    ``times`` must be finite and strictly increasing.  A norm that overflows
    a float is refused by ``_refusing_overflow``.
    """
    _Rule(lambda v: _integer(0).test(v) and v <= 2, "0, 1 or 2").check("level", level)
    times, coeffs = np.asarray(times, dtype=float), np.asarray(coeffs, dtype=np.complex128)
    _Rule(lambda v: np.isfinite(v).all() and (np.diff(v) > 0).all(),
          "finite and strictly increasing").check("times", times)
    if coeffs.shape != (len(times), grid.n):
        raise ValueError(f"coefficient stack has shape {coeffs.shape}, "
                         f"expected ({len(times)}, {grid.n})")

    def total() -> float:
        total = 0.0
        for j in range(level + 1):
            derivs = _symbol(grid, "d_dx", j) * coeffs if j else coeffs
            total += float(np.max(_parseval_norms(derivs, grid)))
            total += float(np.trapezoid(_lp_norms(derivs, grid, 4) ** 4, times) ** 0.25)
        return total
    return _refusing_overflow(f"the level-{level} xnorm", coeffs, total)


def xnorm(traj: Trajectory, level: int) -> float:
    """Mixed space-time norm: sum over derivatives 0..level of
    sup_t ||d^j u||_{L^2} + (integral_0^T ||d^j u||_{L^4}^4 dt)^(1/4).

    The time quadrature is the composite trapezoid rule on the sample times;
    the whole half-spectrum stack goes to ``xnorm_series`` at once.
    """
    return xnorm_series(traj.times, _full_spectrum(traj.half_coeffs, traj.grid.n),
                        traj.grid, level)


def dilate(f: SpectralField, lam: float, variant: str = "bo", k: int = 1) -> SpectralField:
    """Carry a field to the lam-times-larger circle.

    Mode m keeps its index (its frequency becomes m over the enlarged
    period parameter), and the amplitude picks up lam^(-1) for ``bo`` or
    lam^(-1/k) for ``gbo``; if u(t, x) solves the equation on the source
    circle, lam^(-1/k) u(t/lam^2, x/lam) solves it on the target circle.
    The pair (variant, k) must pass ``spectral._check_gauge_variant``:
    ``bo`` has k = 1 and ``gbo`` takes an integer k >= 1.
    """
    _Rule(lambda v: _finite(v) and v >= 1, "finite and at least 1").check("lam", lam)
    _check_gauge_variant(variant, k)
    amp = 1.0 / lam if variant == "bo" else lam ** (-1.0 / k)
    target = PeriodicGrid(f.grid.lam * lam, f.grid.n)
    return SpectralField(target, amp * f.coeffs)
