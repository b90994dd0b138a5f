"""Time stepping: exactness, order, conservation, reversibility, blow-up."""

import ast
import collections
import dataclasses
import inspect

import numpy as np
import pytest

from bosp import (
    BlowUpError,
    ConvergenceResult,
    PeriodicGrid,
    SolverConfig,
    SpectralField,
    Trajectory,
    convergence_order,
    norm,
    pde_residual,
    propagate,
    random_field,
    solve,
    solve_batch,
)
from bosp import evolve, experiments, spectral
from bosp.evolve import _etdrk4_weights
from bosp.lingroup import group_symbol
from bosp.spectral import _nyquist_split, _power, _real_coeffs, _real_values

from conftest import (advance_reference, coeff_distance, count_transforms, dispatching_flux,
                      flux_on, nonlinear_reference, solve_batch_reference, symmetry_defect)


def _stack(u0s):
    """The coefficient stack ``(rows, n)`` of fields, as ``_solve`` passes ``_advance``."""
    return np.array([u0.coeffs for u0 in u0s])


def cos_data(grid, amp=0.1, mean=0.0):
    c = np.zeros(grid.n, dtype=complex)
    c[0] = mean
    c[1] = c[-1] = amp / 2.0
    return SpectralField(grid, c)


# (tag, k) pairs that name no right-hand side, with the one rule's message
REFUSED_RIGHT_HAND_SIDES = {
    ("kdv", 1): "equation must be one of linear, bo2, gbo, renormalized_gbo, got 'kdv'",
    ("gbo", 0): "k must be an integer >= 1, got 0",
    ("gbo", -1): "k must be an integer >= 1, got -1",
    ("gbo", 1.5): "k must be an integer >= 1, got 1.5",
    ("bo2", 3): "k applies to gbo and renormalized_gbo only, got k = 3 for bo2",
    ("linear", 2): "k applies to gbo and renormalized_gbo only, got k = 2 for linear",
}


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig("kdv", dt=0.1, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig("gbo", dt=-0.1, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig("gbo", dt=2.0, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig("gbo", dt=0.1, t_final=1.0, scheme="rk45")
        with pytest.raises(ValueError):
            SolverConfig("gbo", dt=0.1, t_final=1.0, dealias="half")
        with pytest.raises(ValueError):
            SolverConfig("gbo", dt=0.1, t_final=1.0, k=0)

    @pytest.mark.parametrize("equation", ["linear", "bo2"])
    def test_k_rejected_where_equation_has_none(self, equation):
        with pytest.raises(ValueError, match="k applies"):
            SolverConfig(equation, dt=0.1, t_final=1.0, k=3)

    @pytest.mark.parametrize("equation, k", list(REFUSED_RIGHT_HAND_SIDES))
    def test_every_constructor_naming_a_right_hand_side_refuses_alike(self, equation, k):
        # Equation and Trajectory once checked the tag only: gbo with k = 0 integrated
        # u_t + H u_xx = u_x, and a gbo Trajectory with k = -1 gave NaN drifts
        grid = PeriodicGrid(1.0, 16)
        builders = [lambda: SolverConfig(equation, dt=0.1, t_final=1.0, k=k),
                    lambda: evolve.Equation(grid, equation, k),
                    lambda: Trajectory(grid, [0.0, 0.1], np.zeros((2, 9)), equation, k)]
        for build in builders:
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == REFUSED_RIGHT_HAND_SIDES[equation, k]

    @pytest.mark.parametrize("dealias", ["two-thirds", "pad3", "none", "alias-free",
                                         "ALIAS_FREE", "", None])
    def test_equation_refuses_unknown_dealias(self, dealias):
        # "two-thirds" once took the aliased n-point path; a rule is spelled
        # exactly, so a near miss is refused rather than read as the default
        for build in (lambda: evolve.Equation(PeriodicGrid(1.0, 16), "gbo", 1, dealias),
                      lambda: SolverConfig("gbo", dt=0.1, t_final=1.0, dealias=dealias)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == (
                f"dealias must be one of two_thirds, alias_free, got {dealias!r}")

    def test_solver_defaults_are_solver_configs(self):
        # one default, so a default solve and the residuals that check it
        # form the same exact flux
        assert SolverConfig.dealias == "alias_free"
        assert (inspect.signature(evolve.Equation).parameters["dealias"].default
                == SolverConfig.dealias)
        assert experiments._SOLVER["dealias"] == SolverConfig.dealias
        assert experiments._SOLVER["scheme"] == SolverConfig.scheme

    @pytest.mark.parametrize("stride", [0, -2, 1.0])
    def test_sample_stride_must_be_a_positive_integer(self, stride):
        with pytest.raises(ValueError, match="sample_stride must be an integer >= 1"):
            SolverConfig("gbo", dt=0.1, t_final=1.0, sample_stride=stride)

    def test_solver_reads_the_group_symbol_from_the_symbol_table(self):
        tree = ast.parse(inspect.getsource(evolve))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "lingroup" not in imported
        grid = PeriodicGrid(2.0, 32)
        eq = evolve.Equation(grid, "gbo")
        assert np.shares_memory(eq.symbol, spectral._symbol(grid, "bo_group"))
        assert np.array_equal(eq.symbol, group_symbol(grid, "bo_group")[: grid.n // 2 + 1])

    @pytest.mark.parametrize("dt, t_final", [(np.inf, np.inf), (np.nan, 1.0), (0.1, np.inf),
                                             (0.1, np.nan), (0.1, -np.inf)])
    def test_non_finite_dt_or_t_final_rejected(self, dt, t_final):
        # an infinite t_final once overflowed in n_steps instead of naming the value
        with pytest.raises(ValueError, match="must be finite"):
            SolverConfig("gbo", dt=dt, t_final=t_final)

    def test_step_count_must_divide(self):
        cfg = SolverConfig("gbo", dt=0.3, t_final=1.0)
        with pytest.raises(ValueError):
            cfg.n_steps()
        cfg = SolverConfig("gbo", dt=0.1, t_final=1.0, sample_stride=3)
        with pytest.raises(ValueError):
            cfg.n_steps()

    def test_overflowing_step_count_rejected(self):
        # finite dt and t_final whose ratio is not: once an OverflowError in int()
        with pytest.raises(ValueError, match="overflows"):
            SolverConfig("gbo", dt=1e-300, t_final=1e10).n_steps()

    @pytest.mark.parametrize("dt, t_final", [(1e-300, 0.5), (1.0, 2.0 ** 53 + 2)])
    def test_step_count_beyond_float_resolution_rejected(self, dt, t_final):
        # a finite ratio above 2**53 once returned a count no run could take
        with pytest.raises(ValueError, match=r"2\*\*53"):
            SolverConfig("gbo", dt=dt, t_final=t_final).n_steps()

    def test_largest_exact_step_count_accepted(self):
        assert SolverConfig("gbo", dt=1.0, t_final=2.0 ** 53).n_steps() == 2 ** 53

    def test_complex_data_rejected(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.exp(1j * x))
        with pytest.raises(ValueError):
            solve(f, SolverConfig("gbo", dt=0.1, t_final=0.2))

    def test_renormalized_needs_zero_mean(self, grid):
        u0 = cos_data(grid, mean=0.5)
        with pytest.raises(ValueError, match="zero-mean"):
            solve(u0, SolverConfig("renormalized_gbo", dt=0.1, t_final=0.2))


class TestExactCases:
    def test_zero_data_stays_zero(self, grid):
        traj = solve(SpectralField.zero(grid),
                     SolverConfig("gbo", dt=0.05, t_final=0.5))
        for f in traj:
            assert np.max(np.abs(f.coeffs)) < 1e-14

    def test_constant_data_is_steady(self, grid):
        u0 = cos_data(grid, amp=0.0, mean=0.7)
        traj = solve(u0, SolverConfig("gbo", k=2, dt=0.05, t_final=0.5))
        assert coeff_distance(traj[-1], u0) < 1e-14

    def test_linear_tag_matches_exact_propagator(self, grid, random_fields):
        u0 = random_fields(decay=0.5)
        traj = solve(u0, SolverConfig("linear", dt=0.05, t_final=0.5))
        exact = propagate(u0, 0.5)
        assert coeff_distance(traj[-1], exact) < 1e-12


# every nonlinear equation, at degrees whose alias-free grids differ
RESIDUAL_EQUATIONS = ([("gbo", k) for k in range(1, 5)] + [("bo2", 1)]
                      + [("renormalized_gbo", k) for k in range(1, 4)])


class TestAccuracy:
    def test_step_halving_ratio_is_fourth_order(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_data(grid, amp=0.1)

        def final(dt):
            cfg = SolverConfig("gbo", k=1, dt=dt, t_final=0.5, dealias="alias_free",
                               sample_stride=int(round(0.5 / dt)))
            return solve(u0, cfg)[-1]

        ref = final(0.00625)
        e1 = coeff_distance(final(0.05), ref)
        e2 = coeff_distance(final(0.025), ref)
        assert 12.0 < e1 / e2 < 20.0

    @pytest.mark.parametrize("equation,k", RESIDUAL_EQUATIONS)
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    def test_default_solve_satisfies_its_equation_at_fourth_order(self, equation, k, scheme):
        # pde_residual checks against the exact flux; a two_thirds solve's
        # residual shrinks by about 1.2x, not 16x, as the step halves
        u0 = random_field(PeriodicGrid(1.0, 64), np.random.default_rng(3), n_modes=31,
                          decay=0.8, amplitude=0.5)
        l2 = [pde_residual(solve(u0, SolverConfig(equation, k=k, dt=dt, t_final=40 * dt,
                                                  scheme=scheme))).l2
              for dt in (1e-4, 5e-5)]
        assert l2[0] >= 8.0 * l2[1]

    def test_convergence_order_linear_exact(self, grid, random_fields):
        res = convergence_order(random_fields(),
                                SolverConfig("linear", dt=0.05, t_final=0.4),
                                n_levels=3)
        assert res.exact
        assert max(res.errors) < 1e-12

    @pytest.mark.parametrize("k,amp", [(1, 0.1), (3, 0.05)])
    def test_convergence_order_nonlinear(self, k, amp):
        grid = PeriodicGrid(1.0, 128)
        if k == 1:
            u0 = amp * SpectralField.from_function(grid, np.cos)
        else:
            u0 = SpectralField.from_function(
                grid, lambda x: amp * (np.cos(x) + np.sin(2 * x)))
        res = convergence_order(
            u0, SolverConfig("gbo", k=k, dt=0.04, t_final=0.4, dealias="alias_free"),
            n_levels=4)
        assert not res.exact
        assert 3.8 <= res.order <= 4.2

    def test_convergence_result_repr(self):
        exact = ConvergenceResult((0.1, 0.05), (0.0, 1e-13), float("nan"), True)
        assert repr(exact) == "ConvergenceResult(exact: all errors < 1e-12)"
        measured = ConvergenceResult((0.1, 0.05), (1e-3, 6.25e-5), 4.0, False)
        assert repr(measured) == "ConvergenceResult(order=4.000, errors=(0.001, 6.25e-05))"

    def test_needs_three_levels(self, grid, random_fields):
        with pytest.raises(ValueError):
            convergence_order(random_fields(),
                              SolverConfig("linear", dt=0.1, t_final=0.2), 2)

    def test_schemes_agree(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_data(grid, amp=0.1)
        out = {}
        for scheme in ("if_rk4", "etd_rk4"):
            cfg = SolverConfig("gbo", dt=1e-3, t_final=0.2, scheme=scheme,
                               dealias="alias_free", sample_stride=200)
            out[scheme] = solve(u0, cfg)[-1]
        assert coeff_distance(out["if_rk4"], out["etd_rk4"]) < 1e-9


class TestStructurePreservation:
    def test_mean_and_reality(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_data(grid, amp=0.2, mean=0.4)
        traj = solve(u0, SolverConfig("gbo", k=2, dt=1e-3, t_final=0.3,
                                      dealias="alias_free", sample_stride=30))
        for f in traj:
            assert abs(f.coeffs[0].real - 0.4) < 1e-12
            assert abs(f.coeffs[0].imag) < 1e-14
            assert f.is_real and symmetry_defect(f.coeffs) < 1e-12

    def test_l2_drift_small(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_data(grid, amp=0.2)
        traj = solve(u0, SolverConfig("gbo", dt=2e-4, t_final=0.2,
                                      dealias="alias_free", sample_stride=100))
        m = [norm(f, "lp", p=2) ** 2 for f in traj]
        assert max(abs(v - m[0]) for v in m) / m[0] < 1e-10

    def test_reversibility(self):
        # x -> -x maps the equation to its time reversal; for real fields the
        # reflection is coefficient conjugation
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_data(grid, amp=0.1)
        cfg = SolverConfig("gbo", dt=5e-3, t_final=0.5, dealias="alias_free",
                           sample_stride=100)
        fwd = solve(u0, cfg)[-1]
        reflected = SpectralField(grid, np.conj(fwd.coeffs))
        back = solve(reflected, cfg)[-1]
        recovered = SpectralField(grid, np.conj(back.coeffs))

        cfg_half = SolverConfig("gbo", dt=2.5e-3, t_final=0.5, dealias="alias_free",
                                sample_stride=200)
        self_err = coeff_distance(fwd, solve(u0, cfg_half)[-1])
        assert coeff_distance(recovered, u0) <= 10 * max(self_err, 1e-15)


class TestBlowUp:
    def test_blow_up_reports_last_good_time(self):
        grid = PeriodicGrid(1.0, 64)
        u0 = 8.0 * SpectralField.from_function(grid, np.cos)
        with pytest.raises(BlowUpError) as err:
            solve(u0, SolverConfig("gbo", k=3, dt=0.05, t_final=5.0))
        assert 0.0 <= err.value.last_good_time < 5.0


def reference_solve(u0, cfg):
    """Full complex-spectrum stepper, projected onto real data every step.

    Final-state coefficient arrays at each stored sample; the half-spectrum
    solver must reproduce them to round-off.  Under ``alias_free`` it pads to
    4n points, a grid of its own that is exact for k <= 5, not the solver's
    alias-free size.
    """
    grid, dt, k = u0.grid, cfg.dt, cfg.k
    n, half = grid.n, grid.n // 2
    nbig = 4 * n if cfg.dealias == "alias_free" else n
    idx = grid.modes % nbig  # slot of each mode on the (padded) grid
    iq = 1j * grid.freqs
    iq[half] = 0.0
    keep = np.abs(grid.modes) <= (n // 3 if cfg.dealias == "two_thirds" else half)

    def coeffs(vals):
        big = np.fft.fft(vals) / nbig
        out = big[idx]
        if nbig > n:
            out[half] += big[nbig - half]
        return out * keep

    def nonlin(u):
        if cfg.equation == "linear":
            return np.zeros_like(u)
        big = np.zeros(nbig, dtype=complex)
        big[idx] = u
        if nbig > n:  # split the self-conjugate slot between +-n/2
            big[half] *= 0.5
            big[nbig - half] = np.conj(big[half])
        vals = np.fft.ifft(big * nbig).real
        if cfg.equation == "gbo":
            flux = coeffs(vals ** (k + 1)) / (k + 1)
        elif cfg.equation == "bo2":
            flux = coeffs(vals * vals)
        else:
            flux = 2.0 * coeffs(vals ** (k + 1)) / (k + 1) - 2.0 * np.mean(vals ** k) * u
        return iq * flux

    sym = group_symbol(grid, "bo_group")
    ehalf = np.exp(sym * (dt / 2.0))
    efull = ehalf * ehalf
    q2, f1, f2, f3 = _etdrk4_weights(sym * dt, dt)
    u, t_good, out = u0.coeffs.copy(), 0.0, [u0.coeffs.copy()]
    for step in range(1, cfg.n_steps() + 1):
        if cfg.scheme == "if_rk4":
            a = nonlin(u)
            b = nonlin(ehalf * (u + (dt / 2.0) * a))
            c = nonlin(ehalf * u + (dt / 2.0) * b)
            d = nonlin(efull * u + dt * ehalf * c)
            u = efull * u + (dt / 6.0) * (efull * a + 2.0 * ehalf * (b + c) + d)
        else:
            n0 = nonlin(u)
            sa = ehalf * u + q2 * n0
            na = nonlin(sa)
            nb = nonlin(ehalf * u + q2 * na)
            nc = nonlin(ehalf * sa + q2 * (2.0 * nb - n0))
            u = efull * u + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
        u = 0.5 * (u + np.conj(u[-grid.modes % n]))
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e8:
            raise BlowUpError(t_good)
        t_good = step * dt
        if step % cfg.sample_stride == 0:
            out.append(u)
    return out


EQUATIONS = [("linear", 1), ("gbo", 1), ("gbo", 3), ("bo2", 1), ("renormalized_gbo", 2)]


def _random_data(equation, seed=7):
    """Full-band random data with a nonzero (real) Nyquist coefficient."""
    grid = PeriodicGrid(1.0, 32)
    mean = 0.0 if equation == "renormalized_gbo" else 0.2
    f = random_field(grid, np.random.default_rng(seed), n_modes=15,
                     amplitude=0.3, normalize="h1", mean=mean)
    coeffs = f.coeffs.copy()
    coeffs[grid.n // 2] = 0.01
    return SpectralField(grid, coeffs)


class TestHalfSpectrum:
    @pytest.mark.parametrize("equation,k", EQUATIONS)
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    def test_matches_full_spectrum_reference(self, equation, k, scheme, dealias):
        u0 = _random_data(equation)
        cfg = SolverConfig(equation, dt=5e-3, t_final=0.1, k=k, scheme=scheme,
                           dealias=dealias, sample_stride=5)
        traj = solve(u0, cfg)
        ref = reference_solve(u0, cfg)
        assert len(traj) == len(ref)
        for f, c in zip(traj, ref):
            assert np.max(np.abs(f.coeffs - c)) <= 1e-14 * np.max(np.abs(c))

    @pytest.mark.parametrize("equation,k", EQUATIONS)
    def test_snapshots_exactly_conjugate_symmetric(self, equation, k):
        cfg = SolverConfig(equation, dt=5e-3, t_final=0.1, k=k, dealias="alias_free",
                           sample_stride=2)
        for f in solve(_random_data(equation), cfg):
            assert f.is_real and symmetry_defect(f.coeffs) == 0.0

    def test_blow_up_time_matches_reference(self):
        grid = PeriodicGrid(1.0, 64)
        u0 = 2.0 * SpectralField.from_function(grid, np.cos)
        cfg = SolverConfig("gbo", k=3, dt=0.01, t_final=5.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as ref:
                reference_solve(u0, cfg)
            with pytest.raises(BlowUpError) as err:
                solve(u0, cfg)
        assert ref.value.last_good_time > 0.1
        assert err.value.last_good_time == ref.value.last_good_time


def _assert_same_trajectory(traj, ref):
    assert type(traj) is type(ref) and len(traj) == len(ref)
    assert np.array_equal(traj.times, ref.times)
    assert (traj.equation, traj.k) == (ref.equation, ref.k)
    for f, g in zip(traj, ref):
        assert f.is_real and np.max(np.abs(f.coeffs - g.coeffs)) == 0.0


class TestSolveBatch:
    @pytest.mark.parametrize("equation,k", EQUATIONS)
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    def test_rows_equal_solo_solves(self, equation, k, scheme, dealias):
        u0s = [_random_data(equation, seed) for seed in (7, 8, 9)]
        cfg = SolverConfig(equation, dt=5e-3, t_final=0.1, k=k, scheme=scheme,
                           dealias=dealias, sample_stride=5)
        for traj, u0 in zip(solve_batch(u0s, cfg), u0s):
            _assert_same_trajectory(traj, solve(u0, cfg))

    @pytest.mark.parametrize("stack_points", [64, 128, 1 << 14])
    def test_blown_row_leaves_the_others_alone(self, monkeypatch, stack_points):
        # two-thirds rule at n = 64: stacks of 1, 2 and all 4 rows
        monkeypatch.setattr(spectral, "_STACK_POINTS", stack_points)
        grid = PeriodicGrid(1.0, 64)
        cos = SpectralField.from_function(grid, np.cos)
        u0s = [0.1 * cos, 2.0 * cos, random_field(grid, np.random.default_rng(3), n_modes=8,
                                                  amplitude=0.1), 0.05 * cos]
        cfg = SolverConfig("gbo", k=3, dt=0.01, t_final=5.0, dealias="two_thirds",
                           sample_stride=10)
        results = solve_batch(u0s, cfg)
        with pytest.raises(BlowUpError) as solo:
            solve(u0s[1], cfg)
        assert isinstance(results[1], BlowUpError)
        assert 0.1 < results[1].last_good_time == solo.value.last_good_time < 5.0
        for i in (0, 2, 3):
            _assert_same_trajectory(results[i], solve(u0s[i], cfg))

    def test_every_row_checked_before_stepping(self, grid, monkeypatch):
        def no_stepping(*args):
            raise AssertionError("stepped before checking every row")

        monkeypatch.setattr(evolve, "_advance", no_stepping)
        cfg = SolverConfig("renormalized_gbo", dt=0.1, t_final=0.2, dealias="alias_free")
        row = evolve.Equation(grid, cfg.equation, cfg.k, cfg.dealias).nbig
        monkeypatch.setattr(spectral, "_STACK_POINTS", row)  # one row per stack
        good = cos_data(grid)
        with pytest.raises(ValueError, match="zero-mean"):
            solve_batch([good, good, cos_data(grid, mean=0.5)], cfg)
        with pytest.raises(ValueError, match="one grid"):
            solve_batch([good, cos_data(PeriodicGrid(2.0, grid.n))], cfg)
        complex_field = SpectralField.from_function(grid, lambda x: np.exp(1j * x))
        with pytest.raises(ValueError, match="needs real fields: field 1 is complex"):
            solve_batch([good, complex_field], cfg)

    def test_empty_batch(self):
        assert solve_batch([], SolverConfig("gbo", dt=0.1, t_final=0.2)) == []


class TestIntegerPowers:
    @pytest.mark.parametrize("equation,k", [("gbo", 2), ("gbo", 3), ("gbo", 4),
                                            ("renormalized_gbo", 2), ("renormalized_gbo", 3)])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    def test_nonlinear_matches_pow_reference(self, equation, k, dealias):
        # zero-mean data is negative on part of the circle: pow's slow path
        u0 = _random_data("renormalized_gbo")
        eq = evolve.Equation(u0.grid, equation, k, dealias)
        uhat = u0.coeffs[: eq.n // 2 + 1]
        vals = _real_values(uhat, eq.nbig)
        assert vals.min() < 0 < vals.max()
        flux = _real_coeffs(vals ** (k + 1), eq.n)
        if eq.cut is not None:
            flux[eq.cut:] = 0.0
        if equation == "gbo":
            ref = eq.iq * (flux / (k + 1))
        else:
            ref = eq.iq * (2.0 * flux / (k + 1) - 2.0 * np.mean(vals ** k) * uhat)
        got = eq.nonlinear(uhat)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestInPlaceStepper:
    """The preallocated stepper against the allocating reference, bit for bit."""

    @pytest.mark.parametrize("equation,k", EQUATIONS)
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_advance_equals_allocating_reference(self, equation, k, scheme, dealias, rows):
        u0s = [_random_data(equation, seed) for seed in range(7, 7 + rows)]
        cfg = SolverConfig(equation, dt=5e-3, t_final=0.1, k=k, scheme=scheme,
                           dealias=dealias, sample_stride=5)
        eq = evolve.Equation(u0s[0].grid, equation, k, dealias)
        got_refs = zip(evolve._advance(_stack(u0s), [cfg] * len(u0s), eq),
                       advance_reference(u0s, cfg, eq))
        for got, ref in got_refs:
            assert np.array_equal(got.times, ref.times)
            assert np.array_equal(got.half_coeffs, ref.half_coeffs)

    @pytest.mark.parametrize("equation,k", EQUATIONS + [("gbo", 6), ("renormalized_gbo", 5)])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    def test_nonlinear_equals_allocating_reference(self, equation, k, dealias):
        u0s = [_random_data(equation, seed) for seed in (7, 8, 9)]
        eq = evolve.Equation(u0s[0].grid, equation, k, dealias)
        stack = np.array([u0.coeffs[: eq.n // 2 + 1] for u0 in u0s])
        for uhat in (stack[0], stack):
            before = uhat.copy()
            got = eq.nonlinear(uhat)
            assert np.array_equal(got, nonlinear_reference(eq, uhat))
            assert np.array_equal(uhat, before)

    @pytest.mark.parametrize("stack_points", [64, 128, 1 << 14])
    def test_mid_run_blow_up_equals_allocating_reference(self, monkeypatch, stack_points):
        # two-thirds rule at n = 64: stacks of 1, 2 and all 4 rows; a blown row
        # of a stack of 2 or 4 is zeroed mid-run and the stack keeps stepping
        monkeypatch.setattr(spectral, "_STACK_POINTS", stack_points)
        grid = PeriodicGrid(1.0, 64)
        cos = SpectralField.from_function(grid, np.cos)
        u0s = [0.1 * cos, 2.0 * cos, 1.6 * cos, 0.05 * cos]
        cfg = SolverConfig("gbo", k=3, dt=0.01, t_final=5.0, sample_stride=10)
        eq = evolve.Equation(grid, "gbo", 3, cfg.dealias)
        got, ref = solve_batch(u0s, cfg), solve_batch_reference(u0s, cfg, eq)
        for i in (1, 2):
            assert isinstance(got[i], BlowUpError) and isinstance(ref[i], BlowUpError)
            assert 0.1 < got[i].last_good_time == ref[i].last_good_time < 5.0
        assert got[1].last_good_time != got[2].last_good_time
        for i in (0, 3):
            assert np.array_equal(got[i].half_coeffs, ref[i].half_coeffs)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_nan_state_fails_the_blow_up_guard(self, rows):
        # a NaN in the last row's flux at step 4 makes its state NaN, never > the guard
        u0s = [_random_data("gbo", seed) for seed in range(7, 7 + rows)]
        cfg = SolverConfig("gbo", dt=5e-3, t_final=0.05)
        eq = evolve.Equation(u0s[0].grid, "gbo", 1, cfg.dealias)
        flux, calls = eq._flux, []

        def poisoned(uhat, out, work):
            flux(uhat, out, work)
            calls.append(uhat.shape)
            if len(calls) == 3 * 4 + 1:
                out.reshape(-1, out.shape[-1])[-1, 2] = np.nan
            return out

        eq._flux = poisoned
        *good, blown = evolve._advance(_stack(u0s), [cfg] * len(u0s), eq)
        assert isinstance(blown, BlowUpError) and blown.last_good_time == 3 * cfg.dt
        for got, ref in zip(good, solve_batch(u0s[:-1], cfg)):
            assert np.array_equal(got.half_coeffs, ref.half_coeffs)

    def test_work_arrays_built_once_per_stack(self, monkeypatch):
        built = []
        work = evolve.Equation._work
        monkeypatch.setattr(evolve.Equation, "_work",
                            lambda self, ks: built.append(list(ks)) or work(self, ks))
        grid = PeriodicGrid(1.0, 64)
        cos = SpectralField.from_function(grid, np.cos)
        cfg = SolverConfig("gbo", k=3, dt=0.01, t_final=5.0, sample_stride=10)
        results = solve_batch([0.1 * cos, 2.0 * cos, 1.6 * cos, 0.05 * cos], cfg)
        assert [isinstance(r, BlowUpError) for r in results] == [False, True, True, False]
        assert built == [[3, 3, 3, 3]]

    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_eight_transforms_of_nbig_points_per_step(self, monkeypatch, scheme, dealias, rows):
        calls = count_transforms(monkeypatch)
        u0s = [_random_data("gbo", seed) for seed in range(7, 7 + rows)]
        cfg = SolverConfig("gbo", dt=5e-3, t_final=0.05, scheme=scheme, dealias=dealias)
        solve_batch(u0s, cfg)
        nbig = evolve.Equation(u0s[0].grid, "gbo", 1, dealias).nbig
        assert len(calls) == 8 * cfg.n_steps()
        assert sorted(set(calls)) == [("irfft", (rows,), nbig), ("rfft", (rows,), nbig)]
        assert sum(name == "rfft" for name, _, _ in calls) == 4 * cfg.n_steps()


FLUX_EQUATIONS = ([("linear", 1), ("bo2", 1)]
                  + [(eq, k) for eq in ("gbo", "renormalized_gbo") for k in range(1, 9)])
POWER_OF_TWO_DEGREES = [("bo2", 1)] + [(eq, k) for eq in ("gbo", "renormalized_gbo")
                                        for k in (1, 3, 7)]


def _divide_then_multiply(eq, uhat):
    """The flux of ``eq`` on the half-spectrum stack uhat with the equation's
    constant applied to the flux, then iq: ``iq * (flux / (k + 1))`` for
    gbo, ``iq * flux`` for bo2 and ``iq * (2 flux / (k + 1) - 2 mean(u^k)
    u)`` for the renormalized equation."""
    k = eq.k
    vals = _real_values(uhat, eq.nbig)
    flux = _real_coeffs(_power(vals, 2 if eq.eq == "bo2" else k + 1), eq.n)
    if eq.cut is not None:
        flux[..., eq.cut:] = 0.0
    if eq.eq == "gbo":
        flux = flux / (k + 1)
    elif eq.eq == "renormalized_gbo":
        mean = np.mean(_power(vals, k), axis=-1, keepdims=True)
        flux = 2.0 * flux / (k + 1) - 2.0 * mean * uhat
    return eq.iq * flux


class TestBuiltFlux:
    """The flux ``Equation`` builds once against the per-call dispatching one."""

    @pytest.mark.parametrize("transforms", ["_GUFUNC_FFTS", "_NUMPY_FFTS"])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    @pytest.mark.parametrize("equation,k", FLUX_EQUATIONS)
    def test_equals_the_dispatching_flux(self, monkeypatch, transforms, dealias, equation, k):
        """``_flux`` takes the stepper's split state (slot n/2 halved when
        nbig > n) and leaves -n/2 unfolded, so it is the dispatching flux of
        the unsplit state byte for byte on every slot but n/2, and zero there:
        iq is zero on that slot, and the fold only sets the zero's sign."""
        monkeypatch.setattr(spectral, "_FFTS", getattr(spectral, transforms))
        u0s = [_random_data(equation, seed) for seed in (7, 8, 9)]
        eq = evolve.Equation(u0s[0].grid, equation, k, dealias)
        nyq = eq.n // 2
        stack = np.array([u0.coeffs[: nyq + 1] for u0 in u0s])
        stack[:, nyq] = 0.25 + stack[:, nyq].real  # a nonzero slot n/2
        split = stack * _nyquist_split(eq.n) if eq.nbig > eq.n else stack.copy()
        out, before = np.empty_like(stack), split.copy()
        assert eq._flux(split, out, eq._work([k] * len(stack))) is out
        expected = dispatching_flux(eq, stack, np.empty_like(stack))
        assert out[:, :nyq].tobytes() == expected[:, :nyq].tobytes()
        assert np.all(out[:, nyq] == 0.0)
        assert np.array_equal(split, before)

    @pytest.mark.parametrize("equation,k", POWER_OF_TWO_DEGREES)
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    @pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
    def test_folded_factor_equals_divide_then_multiply(self, equation, k, dealias, scale):
        # k + 1 a power of two: iq mu / (k + 1) times the flux is exact, away
        # from the subnormal range that these scales stay out of
        eq = evolve.Equation(PeriodicGrid(1.0, 32), equation, k, dealias)
        uhat = np.array([scale * _random_data(equation, seed).coeffs[: eq.n // 2 + 1]
                         for seed in (7, 8)])
        expected = _divide_then_multiply(eq, uhat)
        assert np.abs(expected).max() > 0
        # the renormalized mean term reads the split state on the slot n/2,
        # which iq zeroes: there the two forms agree but for the zero's sign
        nyq = eq.n // 2
        upto = nyq if equation == "renormalized_gbo" else nyq + 1
        for got, want in ((eq.nonlinear(uhat), expected), (eq.nonlinear(uhat[0]), expected[0])):
            assert got[..., :upto].tobytes() == want[..., :upto].tobytes()
            assert np.all(got[..., nyq] == want[..., nyq])

    @pytest.mark.parametrize("equation", ["gbo", "renormalized_gbo"])
    @pytest.mark.parametrize("k", [2, 4, 5, 6, 8])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    def test_folded_factor_is_divide_then_multiply_to_round_off(self, equation, k, dealias):
        # other degrees round iq mu / (k + 1) once per slot instead of the
        # flux once per call: the two differ by a few ulps of the largest mode
        eq = evolve.Equation(PeriodicGrid(1.0, 32), equation, k, dealias)
        uhat = np.array([_random_data(equation, seed).coeffs[: eq.n // 2 + 1]
                         for seed in (7, 8)])
        expected = _divide_then_multiply(eq, uhat)
        tol = 4 * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(eq.nonlinear(uhat) - expected).max() <= tol

    def test_transform_set_is_read_when_the_equation_is_built(self, monkeypatch):
        grid = PeriodicGrid(1.0, 32)
        uhat = _random_data("gbo").coeffs[: grid.n // 2 + 1]
        before = evolve.Equation(grid, "gbo")
        calls = count_transforms(monkeypatch)
        before.nonlinear(uhat)
        assert calls == []
        evolve.Equation(grid, "gbo").nonlinear(uhat)
        assert [name for name, _, _ in calls] == ["irfft", "rfft"]


def _ladder(cfg, levels=3):
    """cfg at dt / 2^j for j < levels, sampled at cfg's times."""
    return [dataclasses.replace(cfg, dt=cfg.dt / 2 ** j, sample_stride=cfg.sample_stride * 2 ** j)
            for j in range(levels)]


def _solo(u0, cfg):
    try:
        return solve(u0, cfg)
    except BlowUpError as exc:
        return exc


def _one_field(u0, cfgs):
    """u0 under each of cfgs, stepped through the stepper's one entry."""
    return evolve._solve([u0] * len(cfgs), cfgs)


def _assert_same_result(got, ref):
    if isinstance(ref, BlowUpError):
        assert isinstance(got, BlowUpError) and got.last_good_time == ref.last_good_time
    else:
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.half_coeffs, ref.half_coeffs)
        assert (got.equation, got.k) == (ref.equation, ref.k)


class TestSolveLevels:
    """Levels of one field stepped as one stack against their separate solves."""

    @pytest.mark.parametrize("equation,k", [("gbo", 1), ("gbo", 2), ("gbo", 3), ("bo2", 1),
                                            ("renormalized_gbo", 2), ("linear", 1)])
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    def test_each_level_is_its_solve_bit_for_bit(self, equation, k, scheme):
        u0 = _random_data(equation)
        cfg = SolverConfig(equation, dt=4e-3, t_final=0.08, k=k, scheme=scheme, sample_stride=5)
        # out of step order, a level of the same dt and its own stride, and a
        # longer level that steps alone (the one-row state) at the end
        cfgs = _ladder(cfg)[::-1] + [dataclasses.replace(cfg, sample_stride=10),
                                     dataclasses.replace(cfg, dt=1e-3, t_final=0.12)]
        for got, level in zip(_one_field(u0, cfgs), cfgs):
            _assert_same_result(got, solve(u0, level))

    def test_each_row_is_its_field_under_its_config(self):
        # three fields under a ladder's three levels, given out of step order
        u0s = [_random_data("gbo", seed) for seed in (7, 8, 9)]
        cfgs = _ladder(SolverConfig("gbo", dt=4e-3, t_final=0.08, sample_stride=5))[::-1]
        for got, u0, cfg in zip(evolve._solve(u0s, cfgs), u0s, cfgs):
            _assert_same_result(got, solve(u0, cfg))

    def test_fields_are_checked_before_configs(self):
        # as solve_batch checks them: a complex field's error, not the scheme's
        u0 = _random_data("gbo")
        cfg = SolverConfig("gbo", dt=0.01, t_final=0.02)
        with pytest.raises(ValueError, match="solve needs real fields: field 1 is complex"):
            evolve._solve([u0, SpectralField(u0.grid, 1j * u0.coeffs)],
                          [cfg, dataclasses.replace(cfg, scheme="etd_rk4")])

    @pytest.mark.parametrize("dt, blown", [(0.005, [0]), (0.01, [0, 1]), (0.02, [0, 1, 2])])
    def test_a_blown_level_reports_its_own_last_good_time(self, dt, blown):
        # gbo k = 3 from 1.5 cos x blows up at coarse steps and not at fine ones
        u0 = 1.5 * SpectralField.from_function(PeriodicGrid(1.0, 64), np.cos)
        cfgs = _ladder(SolverConfig("gbo", k=3, dt=dt, t_final=2.0, sample_stride=10))
        results = _one_field(u0, cfgs)
        assert [isinstance(r, BlowUpError) for r in results] == [j in blown for j in range(3)]
        for got, cfg in zip(results, cfgs):
            _assert_same_result(got, _solo(u0, cfg))

    def test_a_level_that_blows_up_stepping_alone(self):
        # the level of t_final 1 blows up at 0.53, after the other has left the stack
        u0 = 1.5 * SpectralField.from_function(PeriodicGrid(1.0, 64), np.cos)
        cfg = SolverConfig("gbo", k=3, dt=0.005, t_final=1.0, sample_stride=10)
        cfgs = [cfg, dataclasses.replace(cfg, t_final=0.4)]
        results = _one_field(u0, cfgs)
        assert isinstance(results[0], BlowUpError) and 0.5 < results[0].last_good_time < 0.6
        for got, level in zip(results, cfgs):
            _assert_same_result(got, _solo(u0, level))

    @pytest.mark.parametrize("stack_points", [64, 128])
    def test_levels_beyond_a_stack_are_split(self, monkeypatch, stack_points):
        # two-thirds rule at n = 64: stacks of 1 and 2 levels
        monkeypatch.setattr(spectral, "_STACK_POINTS", stack_points)
        u0 = _random_data("gbo")
        cfgs = _ladder(SolverConfig("gbo", dt=4e-3, t_final=0.08, dealias="two_thirds",
                                    sample_stride=5), levels=4)
        for got, cfg in zip(_one_field(u0, cfgs), cfgs):
            _assert_same_result(got, solve(u0, cfg))

    @pytest.mark.parametrize("key, value", [("equation", "bo2"), ("scheme", "etd_rk4"),
                                            ("dealias", "two_thirds")])
    def test_levels_must_share_the_equation_and_scheme(self, key, value):
        cfg = SolverConfig("gbo", dt=0.01, t_final=0.02)
        cfgs = [cfg, dataclasses.replace(cfg, **{key: value})]
        with pytest.raises(ValueError, match="must share equation, scheme and dealias"):
            _one_field(_random_data("gbo"), cfgs)

    def test_conservation_steps_each_order_study_as_one_stack(self, monkeypatch):
        # 8 transforms per step of one stack, on the k = 3 grid: 7 rows (the
        # reference and 3 levels x 2 degrees) x 250 steps, 5 x 250, 3 x 500; the
        # reference stepped alone on its own 384 points made 8 x 1000 more
        calls = count_transforms(monkeypatch)
        cfg = experiments.ExperimentConfig("conservation")
        experiments._EXPERIMENTS["conservation"].run(cfg, np.random.default_rng(0))
        grid = PeriodicGrid(cfg.lam, cfg.n)
        assert cfg.e_ks == (2, 3)
        nbig = evolve.Equation(grid, "gbo", 3).nbig
        reference = evolve.Equation(grid, "gbo", 1).nbig
        assert (nbig, reference) == (640, 384)
        assert not any(points == reference for _, _, points in calls)
        stepped = {((7,), nbig), ((5,), nbig), ((3,), nbig)}
        assert collections.Counter((lead, points) for _, lead, points in calls
                                   if (lead, points) in stepped) == {
            ((7,), nbig): 8 * 250, ((5,), nbig): 8 * 250, ((3,), nbig): 8 * 500}
        assert cfg.solvers["reference"].n_steps() == 1000
        assert cfg.solvers[experiments._energy_level(3, 2)].n_steps() == 1000


def _mixed_ladders(cfg, ks, levels=3):
    """Each degree of ks with cfg's ladder, degree-major as conservation passes them."""
    return [level for k in ks for level in _ladder(dataclasses.replace(cfg, k=k), levels)]


def _alone(u0, cfgs, nbig):
    """One degree's configs, in ascending step count, stepped as its own stack on nbig points."""
    equation = evolve.Equation(u0.grid, cfgs[0].equation, cfgs[0].k, cfgs[0].dealias)
    return evolve._advance(_stack([u0] * len(cfgs)), cfgs, flux_on(equation, nbig))


class TestMixedDegrees:
    """Ladders of several degrees of one equation stepped as one stack."""

    @pytest.mark.parametrize("equation,ks", [("gbo", (2, 3)), ("gbo", (1, 2, 4)),
                                             ("renormalized_gbo", (1, 3))])
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    @pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])
    def test_each_row_is_its_degree_alone_on_the_stack_grid(self, equation, ks, scheme,
                                                            dealias):
        u0 = _random_data(equation)
        cfg = SolverConfig(equation, dt=4e-3, t_final=0.08, scheme=scheme, dealias=dealias,
                           sample_stride=5)
        cfgs = _mixed_ladders(cfg, ks)
        nbig = evolve.Equation(u0.grid, equation, max(ks), dealias).nbig
        got = _one_field(u0, cfgs)
        for d, k in enumerate(ks):
            for row, ref in zip(got[3 * d: 3 * d + 3], _alone(u0, cfgs[3 * d: 3 * d + 3], nbig)):
                assert row.k == k
                _assert_same_result(row, ref)

    @pytest.mark.parametrize("ks", [(2, 3), (1, 3), (3, 1, 2)])
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    def test_rows_of_the_largest_degree_are_its_own_ladder(self, ks, scheme):
        u0 = _random_data("gbo")
        cfg = SolverConfig("gbo", dt=4e-3, t_final=0.08, scheme=scheme, sample_stride=5)
        cfgs = _mixed_ladders(cfg, ks)
        got = _one_field(u0, cfgs)
        top = ks.index(max(ks))
        alone = _one_field(u0, cfgs[3 * top: 3 * top + 3])
        for row, ref, level in zip(got[3 * top: 3 * top + 3], alone, cfgs[3 * top:]):
            _assert_same_result(row, ref)
            _assert_same_result(row, solve(u0, level))

    def test_a_blown_row_leaves_the_other_degrees_rows_unchanged(self):
        # from 1.5 cos x, gbo k = 3 blows up at dt = 0.01 and 0.005; k = 1 does not
        u0 = 1.5 * SpectralField.from_function(PeriodicGrid(1.0, 64), np.cos)
        cfgs = _mixed_ladders(SolverConfig("gbo", dt=0.01, t_final=2.0, sample_stride=10),
                              (1, 3))
        got = _one_field(u0, cfgs)
        assert [isinstance(r, BlowUpError) for r in got] == [False] * 3 + [True, True, False]
        nbig = evolve.Equation(u0.grid, "gbo", 3).nbig
        for row, ref in zip(got, _alone(u0, cfgs[:3], nbig) + _alone(u0, cfgs[3:], nbig)):
            _assert_same_result(row, ref)
        for row, cfg in zip(got[3:], cfgs[3:]):
            _assert_same_result(row, _solo(u0, cfg))

    @pytest.mark.parametrize("k3_levels", [
        # the second level of k = 3 (dt 2e-3, 40 steps, stride 8) changed
        lambda c: [c[0], dataclasses.replace(c[1], dt=1e-3, t_final=0.04), c[2]],  # another dt
        lambda c: [c[0], dataclasses.replace(c[1], t_final=0.16), c[2]],  # another step count
        lambda c: [c[0], dataclasses.replace(c[1], sample_stride=4), c[2]],
        lambda c: c[:2],  # a level missing
        lambda c: c[::-1],  # another order
    ], ids=["dt", "steps", "stride", "length", "order"])
    def test_ladders_that_differ_step_as_one_stack(self, k3_levels):
        u0 = _random_data("gbo")
        cfgs = _mixed_ladders(SolverConfig("gbo", dt=4e-3, t_final=0.08, sample_stride=4),
                              (2, 3))
        cfgs = cfgs[:3] + k3_levels(cfgs[3:])
        nbig = evolve.Equation(u0.grid, "gbo", 3).nbig
        for row, cfg in zip(_one_field(u0, cfgs), cfgs):
            assert row.k == cfg.k
            _assert_same_result(row, _alone(u0, [cfg], nbig)[0])

    def test_a_one_level_ladder_beside_two_ladders_with_a_blow_up(self):
        # as conservation stacks its reference: k = 1 alone, then the k = 2 and
        # k = 3 ladders at another dt; from 1.5 cos x only k = 3 at dt = 0.005
        # blows up, before the k = 1 row is done
        u0 = 1.5 * SpectralField.from_function(PeriodicGrid(1.0, 64), np.cos)
        reference = SolverConfig("gbo", dt=4e-3, t_final=2.0, sample_stride=25)
        cfgs = [reference] + _mixed_ladders(SolverConfig("gbo", dt=5e-3, t_final=1.0,
                                                         sample_stride=10), (2, 3))
        got = _one_field(u0, cfgs)
        assert [isinstance(r, BlowUpError) for r in got] == [False] * 4 + [True, False, False]
        assert got[4].last_good_time < 1.0
        nbig = evolve.Equation(u0.grid, "gbo", 3).nbig
        for row, cfg in zip(got, cfgs):
            _assert_same_result(row, _alone(u0, [cfg], nbig)[0])
        for row, cfg in zip(got[4:], cfgs[4:]):
            _assert_same_result(row, _solo(u0, cfg))

    @pytest.mark.parametrize("stack_points", [1, 1 << 10])
    def test_rows_split_across_stacks_are_their_own_solves(self, monkeypatch, stack_points):
        # a stack of fewer points than one row takes one row, whatever its level
        monkeypatch.setattr(spectral, "_STACK_POINTS", stack_points)
        assert spectral._row_chunks(9, 100) == (
            [slice(j, j + 1) for j in range(9)] if stack_points == 1 else [slice(0, 10)])
        u0 = _random_data("gbo")
        cfgs = _mixed_ladders(SolverConfig("gbo", dt=4e-3, t_final=0.08, sample_stride=5),
                              (1, 2, 3), levels=4)
        nbig = evolve.Equation(u0.grid, "gbo", 3).nbig
        got = _one_field(u0, cfgs)
        for d in range(3):
            for row, ref in zip(got[4 * d: 4 * d + 4], _alone(u0, cfgs[4 * d: 4 * d + 4], nbig)):
                _assert_same_result(row, ref)


def _nyquist_cfg(scheme, dealias, k=3, dt=4e-3):
    return SolverConfig("gbo", dt=dt, t_final=20 * dt, k=k, scheme=scheme, dealias=dealias,
                        sample_stride=5)


def _runs_with_references(run, u0s, scheme, dealias, k=3, dt=4e-3):
    """Pairs (result, ``advance_reference``'s) from u0s under ``_nyquist_cfg``:
    ``solve`` of u0s[0] (the 1-D state), a ``stack`` of every u0 through
    ``solve_batch``, or a ``ladder`` of u0s[0], the k = 1 and k = 3 step-halving
    ladders as one ``_solve`` stack, each row against its degree on the
    k = 3 grid."""
    grid, cfg = u0s[0].grid, _nyquist_cfg(scheme, dealias, k, dt)
    equation = evolve.Equation(grid, "gbo", k, dealias)
    if run == "solve":
        return [(_solo(u0s[0], cfg), advance_reference(u0s[:1], cfg, equation)[0])]
    if run == "stack":
        return list(zip(solve_batch(u0s, cfg), advance_reference(u0s, cfg, equation)))
    cfgs = _mixed_ladders(cfg, (1, 3))
    nbig = evolve.Equation(grid, "gbo", 3, dealias).nbig
    refs = [advance_reference(u0s[:1], c, flux_on(evolve.Equation(grid, "gbo", c.k, dealias),
                                                  nbig))[0] for c in cfgs]
    return list(zip(_one_field(u0s[0], cfgs), refs))


def _with_nyquist(u0, value):
    coeffs = u0.coeffs.copy()
    coeffs[u0.grid.n // 2] = value
    return SpectralField(u0.grid, coeffs)


NYQUIST_RUNS = pytest.mark.parametrize("run", ["solve", "stack", "ladder"])
SCHEMES = pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
DEALIAS_RULES = pytest.mark.parametrize("dealias", ["alias_free", "two_thirds"])


@NYQUIST_RUNS
@SCHEMES
@DEALIAS_RULES
class TestNyquistSlot:
    """The slot n/2 is constant in time, so the stepper halves it (when the
    flux is padded), guards it and stores it once, on entry."""

    def test_a_nonzero_slot_steps_as_the_reference(self, run, scheme, dealias):
        u0s = [_with_nyquist(_random_data("gbo", seed), 0.05) for seed in (7, 8, 9)]
        pairs = _runs_with_references(run, u0s, scheme, dealias)
        for got, ref in pairs:
            _assert_same_result(got, ref)
            assert np.all(got.half_coeffs[:, 16] == 0.05)

    def test_a_slot_above_the_guard_blows_up_at_time_zero(self, run, scheme, dealias):
        # halved, 1.5e8 is below the guard, and at k = 1 and dt = 1e-7 a field of
        # that slot alone grows past it only after a few steps: the entry check
        # finds it, where the first step's check would not
        good = _random_data("gbo", 8)
        u0s = [_with_nyquist(0.0 * good, 1.5e8), good]
        pairs = _runs_with_references(run, u0s, scheme, dealias, k=1, dt=1e-7)
        for got, ref in pairs if run == "ladder" else pairs[:1]:
            assert isinstance(got, BlowUpError) and got.last_good_time == 0.0
            _assert_same_result(got, ref)
        if run == "stack":
            _assert_same_result(pairs[1][0], pairs[1][1])
            _assert_same_result(pairs[1][0], _solo(good, _nyquist_cfg(scheme, dealias, 1, 1e-7)))

    def test_a_negative_zero_slot_stays_negative_zero(self, run, scheme, dealias):
        u0s = [_with_nyquist(_random_data("gbo", seed), -0.0) for seed in (7, 8, 9)]
        for got, _ in _runs_with_references(run, u0s, scheme, dealias):
            slot = got.half_coeffs[:, 16]
            assert np.all(slot == 0.0) and np.all(np.signbit(slot.real))
            assert all(np.signbit(f.coeffs[16].real) for f in got)

    def test_a_step_makes_eight_transforms(self, monkeypatch, run, scheme, dealias):
        calls = count_transforms(monkeypatch)
        u0s = [_with_nyquist(_random_data("gbo", seed), 0.05) for seed in (7, 8, 9)]
        cfg = _nyquist_cfg(scheme, dealias)
        if run == "solve":
            solve(u0s[0], cfg)
        elif run == "stack":
            solve_batch(u0s, cfg)
        else:  # the finest level's steps, the stack's lockstep
            _one_field(u0s[0], _mixed_ladders(cfg, (1, 3)))
            cfg = _ladder(cfg)[-1]
        assert len(calls) == 8 * cfg.n_steps()
        assert sum(name == "rfft" for name, _, _ in calls) == 4 * cfg.n_steps()


class TestDefaultDealias:
    """A call that leaves ``dealias`` out takes ``SolverConfig``'s, the exact flux."""

    @pytest.mark.parametrize("equation,k", FLUX_EQUATIONS)
    def test_residuals_form_the_flux_a_default_solve_steps(self, equation, k):
        # pde_residual and the gauge residuals build Equation at its default;
        # the solver builds it from its config's dealias
        grid = PeriodicGrid(1.0, 32)
        cfg = SolverConfig(equation, k=k, dt=0.01, t_final=0.1)
        solver_eq = evolve.Equation(grid, cfg.equation, cfg.k, cfg.dealias)
        residual_eq = evolve.Equation(grid, equation, k)
        assert (residual_eq.nbig, residual_eq.cut) == (solver_eq.nbig, solver_eq.cut)
        assert residual_eq.nbig == evolve.Equation(grid, equation, k, "alias_free").nbig
        uhat = np.array([_random_data(equation, seed).coeffs[: grid.n // 2 + 1]
                         for seed in (7, 8)])
        assert residual_eq.nonlinear(uhat).tobytes() == solver_eq.nonlinear(uhat).tobytes()

    @pytest.mark.parametrize("equation,k", EQUATIONS + [("gbo", 6), ("renormalized_gbo", 5)])
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    def test_default_solve_is_the_alias_free_solve(self, equation, k, scheme):
        u0 = _random_data(equation)
        cfg = SolverConfig(equation, dt=5e-3, t_final=0.1, k=k, scheme=scheme, sample_stride=5)
        _assert_same_trajectory(solve(u0, cfg),
                                solve(u0, dataclasses.replace(cfg, dealias="alias_free")))

    @pytest.mark.parametrize("equation,k", EQUATIONS + [("gbo", 6), ("renormalized_gbo", 5)])
    @pytest.mark.parametrize("scheme", ["if_rk4", "etd_rk4"])
    def test_default_batch_is_the_alias_free_batch(self, equation, k, scheme):
        u0s = [_random_data(equation, seed) for seed in (7, 8)]
        cfg = SolverConfig(equation, dt=5e-3, t_final=0.1, k=k, scheme=scheme, sample_stride=5)
        exact = solve_batch(u0s, dataclasses.replace(cfg, dealias="alias_free"))
        for traj, ref in zip(solve_batch(u0s, cfg), exact):
            _assert_same_trajectory(traj, ref)
