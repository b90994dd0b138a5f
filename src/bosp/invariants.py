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
points).  F and E_k share that grid, and along a trajectory they are
evaluated on the half-spectrum stack, bit-identical to each snapshot alone.
So are the mixed space-time norms and the H^1 check: each is one per-row
reduction of the trajectory's stack, with no field built per snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _RULES as _SPECTRAL_RULES
from .spectral import (PeriodicGrid, SpectralField, Trajectory, _Rule, _alias_free_points,
                       _check_gauge_variant, _check_no_overflow, _check_real, _choice, _finite,
                       _full_spectrum, _integer, _lp_norms, _parseval_norms, _power, _real_values,
                       _row_chunks, _symbol)

__all__ = [
    "invariant",
    "InvariantReport",
    "drift_report",
    "xnorm",
    "xnorm_series",
    "H1Check",
    "h1_apriori_check",
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

    Rows go in chunks of at most ``_STACK_POINTS`` padded points.  Parseval
    sums run over the half spectra, each mode 0 < m < n/2 weighted 2 for
    its conjugate, and the values of u are synthesized once per chunk, for
    both F_bo and E_gbo, on the alias-free grid of degree max(4, k + 2).
    The coefficients are finite, so a value that is not overflowed a float:
    it is refused by name, and numpy does not warn.
    """
    circ, h = grid.circumference, grid.n // 2 + 1
    q = np.abs(grid.freqs[:h])
    weights = np.full(h, 2.0)
    weights[[0, -1]] = 1.0
    quadratic = {"M": weights, "F_bo": weights * q ** 2, "E_gbo": 0.5 * weights * q}
    nbig = _alias_free_points(grid.n, max(4, k + 2))
    hdx = _symbol(grid, "hilbert_dx")[:h]
    out = {name: [] for name in names}
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_chunks(len(half), nbig):
            c = half[rows]
            abs2 = np.abs(c) ** 2
            if "F_bo" in names or "E_gbo" in names:
                u = _real_values(c, nbig)
            for name in names:
                value = circ * (c[:, 0].real if name == "I"
                                else np.sum(quadratic[name] * abs2, axis=-1))
                if name == "F_bo":
                    hux = _real_values(hdx * c, nbig)
                    value = (value - sign * 0.75 * (circ * np.mean(u * u * hux, axis=-1))
                             + 0.125 * (circ * np.mean(_power(u, 4), axis=-1)))
                elif name == "E_gbo":
                    power = circ * np.mean(_power(u, k + 2), axis=-1) / ((k + 1) * (k + 2))
                    value = value - sign * power
                out[name].append(value)
    out = {name: np.concatenate(values) for name, values in out.items()}
    for name, values in out.items():
        _check_no_overflow(values, half, name)
    return out


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
    """
    _Rule(lambda v: _integer(0).test(v) and v <= 2, "0, 1 or 2").check("level", level)
    times, coeffs = np.asarray(times, dtype=float), np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (len(times), grid.n):
        raise ValueError(f"coefficient stack has shape {coeffs.shape}, "
                         f"expected ({len(times)}, {grid.n})")
    total = 0.0
    for j in range(level + 1):
        derivs = _symbol(grid, "d_dx", j) * coeffs if j else coeffs
        total += float(np.max(_parseval_norms(derivs, grid)))
        total += float(np.trapezoid(_lp_norms(derivs, grid, 4) ** 4, times) ** 0.25)
    return total


def xnorm(traj: Trajectory, level: int) -> float:
    """Mixed space-time norm: sum over derivatives 0..level of
    sup_t ||d^j u||_{L^2} + (integral_0^T ||d^j u||_{L^4}^4 dt)^(1/4).

    The time quadrature is the composite trapezoid rule on the sample times;
    the whole half-spectrum stack goes to ``xnorm_series`` at once.
    """
    return xnorm_series(traj.times, _full_spectrum(traj.half_coeffs, traj.grid.n),
                        traj.grid, level)


@dataclass(frozen=True)
class H1Check:
    ratio: float
    degenerate: bool


def h1_apriori_check(traj: Trajectory) -> H1Check:
    """max_t ||u(t)||_{H^1} / ||u(0)||_{H^1}; degenerate for zero data."""
    h1s = _parseval_norms(_full_spectrum(traj.half_coeffs, traj.grid.n), traj.grid, 1.0)
    if h1s[0] == 0.0:
        return H1Check(float("nan"), True)
    return H1Check(float(np.max(h1s) / h1s[0]), False)


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
