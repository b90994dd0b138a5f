"""The alias-free quadrature rule and the exact polynomial integrals it sizes.

A degree-d product of fields with modes up to n/2 has its top mode at
d * n/2, so its rectangle-rule mean is exact on N > d * n/2 points.  A
product truncated to n modes is exact on the same rule with one degree more
(each kept coefficient is the mean of the product times one mode): the
solver's gbo flux u^{k+1} with degree k + 2, ``multiply`` with degree 3.
The references below sum on 16n points, exact for every degree tested; the
full-band fields carry the slot n/2, so a grid one size too small shows.
"""

import numpy as np
import pytest

from bosp import (PeriodicGrid, SpectralField, Trajectory, analyze_values_padded, invariant,
                  multiply, norm, renormalize_gbo, synthesize)
from bosp.evolve import Equation
from bosp.spectral import _alias_free_points

REF_PAD = 16


def _five_smooth(m):
    primes = {p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))}
    return primes <= {2, 3, 5}


def full_band(grid, seed, real=True):
    """A flat-spectrum field with every mode set, the slot n/2 included."""
    rng = np.random.default_rng(seed)
    n = grid.n
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)
    if not real:
        return SpectralField(grid, c)
    half = c[: n // 2 + 1].copy()
    half[[0, -1]] = half[[0, -1]].real
    return SpectralField(grid, np.concatenate([half, np.conj(half[-2:0:-1])]))


@pytest.fixture
def grid():
    return PeriodicGrid(1.3, 64)


class TestRule:
    @pytest.mark.parametrize("degree", range(2, 11))
    def test_matches_brute_force(self, degree):
        for n in range(1, 65):
            points = _alias_free_points(n, degree)
            assert points >= n and 2 * points > degree * n and _five_smooth(points)
            smaller = [m for m in range(n, points) if 2 * m > degree * n and _five_smooth(m)]
            assert smaller == [], (n, degree)

    def test_sizes(self):
        assert _alias_free_points(2048, 4) == 4320
        assert _alias_free_points(64, 4) == 135
        assert _alias_free_points(64, 1) == 64  # never below n


class TestExactIntegrals:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_energy(self, grid, k):
        u = full_band(grid, 1)
        circ = grid.circumference
        kinetic = 0.5 * circ * np.sum(np.abs(grid.freqs) * np.abs(u.coeffs) ** 2)
        power = circ * np.mean(synthesize(u, REF_PAD) ** (k + 2)) / ((k + 1) * (k + 2))
        assert invariant(u, "E_gbo", k=k) == pytest.approx(kinetic - power, rel=1e-13)

    def test_weighted_functional(self, grid):
        u = full_band(grid, 2)
        circ = grid.circumference
        vals = synthesize(u, REF_PAD)
        hux = synthesize(SpectralField(
            grid, np.abs(grid.freqs) * u.coeffs * (grid.modes != grid.n // 2)),
            REF_PAD)
        expected = (circ * np.sum((grid.freqs * np.abs(u.coeffs)) ** 2)
                    - 0.75 * circ * np.mean(vals * vals * hux) + 0.125 * circ * np.mean(vals ** 4))
        assert invariant(u, "F_bo") == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("real", [True, False])
    def test_l4_norm(self, grid, real):
        f = full_band(grid, 3, real)
        expected = (grid.circumference * np.mean(np.abs(synthesize(f, REF_PAD)) ** 4)) ** 0.25
        assert norm(f, "lp", p=4) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_renormalization_mean(self, grid, k):
        # two equal snapshots dt apart: the second is translated by dt * mean(u^k),
        # and dt is chosen so that the translation is one unit
        u = full_band(grid, 4)
        mean = np.mean(synthesize(u, REF_PAD) ** k)
        half = u.coeffs[: grid.n // 2 + 1]
        traj = Trajectory(grid, [0.0, 1.0 / abs(mean)], [half, half], "gbo", k)
        out = renormalize_gbo(traj).half_coeffs
        shift = -np.angle(out[1, 1] / (2.0 ** (-1.0 / k) * half[1])) / grid.freqs[1]
        assert shift == pytest.approx(np.sign(mean), rel=1e-13)


def reference_flux(u, equation, k):
    """The half-spectrum flux of ``Equation.nonlinear``, formed on 16n points."""
    grid, half = u.grid, u.grid.n // 2 + 1
    vals = synthesize(u, REF_PAD)
    power = analyze_values_padded(vals ** (2 if equation == "bo2" else k + 1), grid)
    flux = power.coeffs[:half]
    if equation == "gbo":
        flux = flux / (k + 1)
    elif equation == "renormalized_gbo":
        flux = 2.0 * flux / (k + 1) - 2.0 * np.mean(vals ** k) * u.coeffs[:half]
    iq = 1j * grid.freqs[:half]
    iq[-1] = 0.0  # the odd multiplier zeroes the slot n/2
    return iq * flux


class TestExactProducts:
    @pytest.mark.parametrize("equation, k", [*(("gbo", k) for k in range(1, 9)), ("bo2", 1),
                                             *(("renormalized_gbo", k) for k in range(1, 5))])
    def test_solver_flux(self, grid, equation, k):
        # k = 7 and 8 were off by 2.8e-6 and 5.3e-5 on a fixed 4n grid
        u = full_band(grid, 5)
        if equation == "renormalized_gbo":
            u = SpectralField(grid, u.coeffs * (grid.modes != 0))
        ref = reference_flux(u, equation, k)
        got = Equation(grid, equation, k).nonlinear(u.coeffs[: grid.n // 2 + 1])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("equation, k", [*(("gbo", k) for k in range(1, 5)), ("bo2", 1),
                                             *(("renormalized_gbo", k) for k in range(1, 5))])
    @pytest.mark.parametrize("lam", [1.0, 4.0])
    def test_solver_flux_on_a_larger_grid(self, equation, k, lam):
        # the premise of stepping several degrees on the largest one's grid:
        # above its alias-free size a flux is the same on every kept mode
        grid = PeriodicGrid(lam, 64)
        u = full_band(grid, 5)
        if equation == "renormalized_gbo":
            u = SpectralField(grid, u.coeffs * (grid.modes != 0))
        half = u.coeffs[: grid.n // 2 + 1]
        eq = Equation(grid, equation, k)
        flux = eq.nonlinear(half)
        for points in (_alias_free_points(grid.n, k + 3), _alias_free_points(grid.n, k + 6),
                       REF_PAD * grid.n):
            assert points > eq.nbig == _alias_free_points(grid.n, k + 2)
            got = eq._stack(points).nonlinear(half)
            assert np.max(np.abs(got - flux)) <= 1e-14 * np.max(np.abs(flux))

    @pytest.mark.parametrize("n, equation, k, dealias, nbig", [
        (64, "gbo", 1, "alias_free", 100), (64, "bo2", 1, "alias_free", 100),
        (64, "gbo", 7, "alias_free", 300), (128, "gbo", 1, "alias_free", 200),
        (256, "gbo", 1, "alias_free", 400), (256, "gbo", 3, "alias_free", 648),
        (256, "renormalized_gbo", 2, "alias_free", 540),
        (64, "gbo", 1, "two_thirds", 64),
    ])
    def test_solver_grid_size(self, n, equation, k, dealias, nbig):
        assert Equation(PeriodicGrid(1.0, n), equation, k, dealias).nbig == nbig

    @pytest.mark.parametrize("real", [True, False])
    def test_multiply(self, grid, real):
        f, g = full_band(grid, 6, real), full_band(grid, 7, real)
        ref = analyze_values_padded(synthesize(f, REF_PAD) * synthesize(g, REF_PAD), grid)
        got = multiply(f, g)
        assert got.is_real == real
        assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-14 * np.max(np.abs(ref.coeffs))
