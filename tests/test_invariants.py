"""Conserved quantities, drift reports, space-time norms, dilation."""

import numpy as np
import pytest

from bosp import (
    PeriodicGrid,
    SolverConfig,
    SpectralField,
    Trajectory,
    dilate,
    drift_report,
    h1_apriori_check,
    invariant,
    norm,
    random_field,
    solve,
    synthesize,
    xnorm,
    xnorm_series,
)
from bosp import invariants
from bosp.spectral import _full_spectrum

from conftest import dense_hilbert, dense_points, dense_values, xnorm_series_per_field


def cos_field(grid, amp=1.0, mean=0.0):
    c = np.zeros(grid.n, dtype=complex)
    c[0] = mean
    c[1] = c[-1] = amp / 2.0
    return SpectralField(grid, c)


def constant_trajectory(grid, f, n_snap=5, t_final=1.0):
    times = np.linspace(0.0, t_final, n_snap)
    return Trajectory(grid, times, [f.coeffs[: grid.n // 2 + 1]] * n_snap, "linear")


class TestInvariantValues:
    def test_mean_and_mass_of_cos(self, grid):
        u = cos_field(grid)
        assert invariant(u, "I") == pytest.approx(0.0, abs=1e-14)
        assert invariant(u, "M") == pytest.approx(np.pi, rel=1e-13)

    def test_weighted_functional_of_cos(self, grid):
        # grad term pi, cubic integrand cos^3 integrates to zero,
        # quartic contributes +(1/8)(3 pi / 4)
        u = cos_field(grid)
        assert invariant(u, "F_bo") == pytest.approx(35 * np.pi / 32, rel=1e-12)

    def test_weighted_functional_dense_oracle(self, rng):
        grid = PeriodicGrid(1.0, 64)
        u = random_field(grid, rng, n_modes=12, amplitude=0.7, normalize="h1")
        xs = dense_points(grid)
        uv = np.real(dense_values(u, xs))
        du = np.real(dense_values(
            SpectralField(grid, (1j * grid.freqs) * u.coeffs), xs))
        hux = np.real(dense_hilbert(du, grid.lam))
        w = grid.circumference / xs.size
        expected = (np.sum(du**2) - 0.75 * np.sum(uv * uv * hux)
                    + 0.125 * np.sum(uv**4)) * w
        assert invariant(u, "F_bo") == pytest.approx(expected, rel=1e-11)

    def test_energy_of_cos_k2(self, grid):
        u = cos_field(grid)
        assert invariant(u, "E_gbo", k=2) == pytest.approx(7 * np.pi / 16, rel=1e-12)

    def test_energy_dense_oracle(self, rng):
        grid = PeriodicGrid(1.0, 64)
        k = 3
        u = random_field(grid, rng, n_modes=12, amplitude=0.5, normalize="h1")
        xs = dense_points(grid)
        uv = np.real(dense_values(u, xs))
        q = grid.freqs
        half = 0.5 * grid.circumference * np.sum(np.abs(q) * np.abs(u.coeffs) ** 2)
        w = grid.circumference / xs.size
        expected = half - np.sum(uv ** (k + 2)) * w / ((k + 1) * (k + 2))
        assert invariant(u, "E_gbo", k=k) == pytest.approx(expected, rel=1e-11)

    def test_requires_real(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.exp(1j * x))
        with pytest.raises(ValueError):
            invariant(f, "M")
        with pytest.raises(ValueError):
            invariant(cos_field(grid), "Q")


class TestIntegerPowers:
    """The u^p integrals equal a ``**`` reference at round-off."""

    @staticmethod
    def signed_field(seed=3):
        grid = PeriodicGrid(1.5, 64)
        return random_field(grid, np.random.default_rng(seed), n_modes=20,
                            amplitude=0.8, normalize="h1")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_energy_matches_pow_reference(self, k):
        u = self.signed_field()
        grid, c = u.grid, u.coeffs
        vals = synthesize(u, 4)
        assert vals.min() < 0 < vals.max()
        half = 0.5 * grid.circumference * np.sum(np.abs(grid.freqs) * np.abs(c) ** 2)
        power = grid.circumference * np.mean(vals ** (k + 2)) / ((k + 1) * (k + 2))
        assert invariant(u, "E_gbo", k=k) == pytest.approx(half - power, rel=1e-14)

    def test_weighted_functional_matches_pow_reference(self):
        u = self.signed_field()
        grid, circ = u.grid, u.grid.circumference
        vals = synthesize(u, 4)
        hux = synthesize(SpectralField(
            grid, np.abs(grid.freqs) * u.coeffs * (np.arange(grid.n) != grid.n // 2)), 4)
        grad_sq = circ * np.sum((grid.freqs * np.abs(u.coeffs)) ** 2)
        expected = (grad_sq - 0.75 * circ * np.mean(vals * vals * hux)
                    + 0.125 * circ * np.mean(vals ** 4))
        assert invariant(u, "F_bo") == pytest.approx(expected, rel=1e-14)

    def test_weighted_functional_synthesizes_u_once(self, monkeypatch):
        calls = []
        real_values = invariants._real_values

        def counting(half, nbig):
            calls.append((half.shape, nbig))
            return real_values(half, nbig)

        monkeypatch.setattr(invariants, "_real_values", counting)
        u = self.signed_field()
        n = u.grid.n
        nbig = 135  # the alias-free size of degree 4 at n = 64: 5-smooth and > 2n
        invariant(u, "F_bo")
        assert calls == [((1, n // 2 + 1), nbig)] * 2  # u and H(u_x)
        # a gbo k = 1 report synthesizes u once per chunk for both F_bo and E_gbo
        calls.clear()
        traj = Trajectory(u.grid, [0.0, 0.1, 0.2], [u.coeffs[: n // 2 + 1]] * 3, "gbo")
        drift_report(traj)
        assert calls == [((3, n // 2 + 1), nbig)] * 2


class TestDriftReport:
    def test_zero_trajectory(self, grid):
        traj = constant_trajectory(grid, SpectralField.zero(grid))
        rep = drift_report(traj)
        assert all(v == 0.0 for v in rep.drifts.values())

    def test_linear_flow_mass_exact(self, rng):
        grid = PeriodicGrid(1.0, 64)
        u0 = random_field(grid, rng, n_modes=16)
        traj = solve(u0, SolverConfig("linear", dt=0.01, t_final=0.5,
                                      sample_stride=10))
        rep = drift_report(traj)
        assert rep.drifts["M"] < 1e-13

    def test_small_reference_run(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_field(grid, 0.2)
        traj = solve(u0, SolverConfig("gbo", k=1, dt=5e-4, t_final=0.2,
                                      dealias="alias_free", sample_stride=40))
        rep = drift_report(traj)
        assert rep.drifts["I"] < 1e-12
        assert rep.drifts["M"] < 1e-11
        assert rep.drifts["F_bo"] < 1e-9
        assert rep.drifts["E_gbo"] < 1e-9

    def test_bo2_run_conserves_f_bo_at_2u(self):
        grid = PeriodicGrid(1.0, 128)
        traj = solve(cos_field(grid, 0.2), SolverConfig("bo2", dt=5e-4, t_final=0.2,
                                                        dealias="alias_free", sample_stride=40))
        assert drift_report(traj).drifts["F_bo"] < 1e-10

    def test_sign_separation_on_short_run(self):
        # the mirror-convention functional must drift visibly
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_field(grid, 0.2)
        traj = solve(u0, SolverConfig("gbo", k=1, dt=5e-4, t_final=1.0,
                                      dealias="alias_free", sample_stride=100))
        wrong = np.array([invariant(f, "F_bo", sign=-1.0) for f in traj])
        drift = np.max(np.abs(wrong - wrong[0])) / abs(wrong[0])
        assert drift > 1e-3


def _tag_trajectory(equation, k):
    """11 snapshots of a full-band solve: not a multiple of 3-row chunks."""
    grid = PeriodicGrid(1.0, 32)
    u0 = random_field(grid, np.random.default_rng(11), n_modes=15, amplitude=0.3)
    if equation == "renormalized_gbo":
        u0 = SpectralField(grid, np.where(grid.modes == 0, 0.0, u0.coeffs))
    return solve(u0, SolverConfig(equation, k=k, dt=1e-3, t_final=0.01))


class TestStackedSeries:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        from bosp import spectral

        # 3 rows a stack for the solver's 4n = 128 points, and 5 or 4 for the
        # invariants' 72 or 81 alias-free points
        monkeypatch.setattr(spectral, "_STACK_POINTS", 3 * 4 * 32)

    @pytest.mark.parametrize("equation, k", [("linear", 1), ("bo2", 1), ("gbo", 1),
                                             ("gbo", 3), ("renormalized_gbo", 2)])
    def test_series_equal_per_snapshot_values(self, equation, k):
        traj = _tag_trajectory(equation, k)
        assert len(traj) == 11
        rep = drift_report(traj)
        for name, series in rep.values.items():
            # 2u solves the u u_x equation when u solves bo2
            fields = [2.0 * f if equation == "bo2" and name == "F_bo" else f for f in traj]
            solo = np.array([invariant(f, name, k=k) for f in fields])
            assert np.array_equal(series, solo), name
        for name in ("I", "M", "F_bo", "E_gbo"):
            for sign in (1.0, -1.0):
                series = invariant(traj, name, k=k, sign=sign)
                assert series.shape == (len(traj),)
                solo = [invariant(f, name, k=k, sign=sign) for f in traj]
                assert np.array_equal(series, solo), (name, sign)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="which must be one of I, M, F_bo, E_gbo"):
            invariant(_tag_trajectory("linear", 1), "H")


class TestXNorms:
    def test_zero(self, grid):
        traj = constant_trajectory(grid, SpectralField.zero(grid))
        assert xnorm(traj, 0) == 0.0

    def test_constant_in_time_cos(self, grid):
        traj = constant_trajectory(grid, cos_field(grid))
        x0 = np.sqrt(np.pi) + (3 * np.pi / 4) ** 0.25
        assert xnorm(traj, 0) == pytest.approx(x0, rel=1e-12)
        assert xnorm(traj, 1) == pytest.approx(2 * x0, rel=1e-12)

    def test_monotone_in_level(self, rng):
        grid = PeriodicGrid(1.0, 64)
        u0 = random_field(grid, rng, n_modes=12)
        traj = solve(u0, SolverConfig("linear", dt=0.02, t_final=0.2,
                                      sample_stride=2))
        x0, x1, x2 = (xnorm(traj, lvl) for lvl in (0, 1, 2))
        assert x0 <= x1 <= x2

    def test_level_validation(self, grid):
        traj = constant_trajectory(grid, cos_field(grid))
        with pytest.raises(ValueError):
            xnorm(traj, 3)

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("real", [True, False])
    def test_stack_equals_per_field_reference(self, level, real):
        traj = _tag_trajectory("gbo", 1)
        grid, times = traj.grid, traj.times
        if real:
            fields = list(traj)
            assert xnorm(traj, level) == xnorm_series_per_field(times, fields, level)
        else:
            rng = np.random.default_rng(level)
            fields = [SpectralField(grid, c) for c in
                      rng.standard_normal((len(traj), grid.n))
                      + 1j * rng.standard_normal((len(traj), grid.n))]
        stack = np.array([f.coeffs for f in fields])
        assert xnorm_series(times, stack, grid, level) == xnorm_series_per_field(
            times, fields, level)

    def test_stack_shape_checked(self, grid):
        traj = constant_trajectory(grid, cos_field(grid))
        stack = _full_spectrum(traj.half_coeffs, grid.n)
        with pytest.raises(ValueError, match="coefficient stack has shape"):
            xnorm_series(traj.times[1:], stack, grid, 0)
        with pytest.raises(ValueError, match="coefficient stack has shape"):
            xnorm_series(traj.times, stack[:, :-2], grid, 0)


class TestH1Check:
    def test_linear_flow_is_isometric(self, rng):
        grid = PeriodicGrid(1.0, 64)
        u0 = random_field(grid, rng, n_modes=16)
        traj = solve(u0, SolverConfig("linear", dt=0.01, t_final=0.3,
                                      sample_stride=5))
        out = h1_apriori_check(traj)
        assert not out.degenerate
        assert out.ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_data_degenerate(self, grid):
        traj = constant_trajectory(grid, SpectralField.zero(grid))
        assert h1_apriori_check(traj).degenerate

    @pytest.mark.parametrize("equation, k", [("gbo", 1), ("gbo", 3), ("bo2", 1)])
    def test_ratio_equals_per_snapshot_norms(self, equation, k):
        traj = _tag_trajectory(equation, k)
        h1s = [norm(f, "hs", s=1.0) for f in traj]
        out = h1_apriori_check(traj)
        assert not out.degenerate
        assert out.ratio == max(h1s) / h1s[0]

    def test_nonlinear_run_stays_bounded(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_field(grid, 0.2)
        traj = solve(u0, SolverConfig("gbo", k=1, dt=1e-3, t_final=1.0,
                                      dealias="alias_free", sample_stride=50))
        out = h1_apriori_check(traj)
        assert not out.degenerate
        assert out.ratio < 2.0


class TestDilate:
    def test_identity_at_one(self, grid, rng):
        f = random_field(grid, rng, n_modes=16)
        out = dilate(f, 1.0, "bo")
        assert out.grid == grid
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-16

    def test_l2_scaling_law(self, grid):
        f = cos_field(grid)
        out = dilate(f, 4.0, "bo")
        assert out.grid.lam == 4.0
        assert norm(out, "lp", p=2) == pytest.approx(
            np.sqrt(np.pi) / 2.0, rel=1e-10)

    def test_gbo_amplitude_exponent(self, grid):
        f = cos_field(grid)
        out = dilate(f, 8.0, "gbo", k=3)
        assert np.abs(out.coeffs[1] - 0.5 * 8.0 ** (-1 / 3)) < 1e-15

    def test_lambda_below_one_rejected(self, grid):
        with pytest.raises(ValueError):
            dilate(cos_field(grid), 0.5, "bo")
        with pytest.raises(ValueError):
            dilate(cos_field(grid), 2.0, "kdv")

    def test_infinite_lambda_rejected(self, grid):
        with pytest.raises(ValueError, match="lam must be finite and at least 1"):
            dilate(cos_field(grid), np.inf, "bo")

    def test_linear_flow_commutes_exactly(self, rng):
        # dilation maps exact propagators to exact propagators
        grid = PeriodicGrid(1.0, 64)
        u0 = random_field(grid, rng, n_modes=12)
        lam, t = 2.0, 0.3
        a = solve(u0, SolverConfig("linear", dt=0.01, t_final=t,
                                   sample_stride=30))[-1]
        path1 = dilate(a, lam, "bo")
        b = solve(dilate(u0, lam, "bo"),
                  SolverConfig("linear", dt=lam * lam * 0.01,
                               t_final=lam * lam * t, sample_stride=30))[-1]
        assert norm(path1 - b, "hs", s=1.0) < 1e-12
