"""Gauge transform construction, derived equations, renormalizations."""

import re
import warnings

import numpy as np
import pytest
import scipy.special

from bosp import (
    PeriodicGrid,
    SolverConfig,
    SpectralField,
    Trajectory,
    analyze_values_padded,
    build_gauge,
    differentiate,
    gauge_lipschitz_gap,
    gauge_residual,
    gauge_residual_batch,
    hilbert,
    norm,
    pde_residual,
    project,
    random_field,
    reconstruct_u,
    remove_mean_bo,
    renormalize_gbo,
    rhs_bo,
    rhs_gbo_terms,
    solve,
    symmetry_defect,
    synthesize,
)
from bosp.evolve import Equation
from bosp.spectral import _alias_free_points, _real_values

from conftest import (
    coeff_distance,
    count_transforms,
    dense_analyze,
    dense_antiderivative,
    dense_ddx,
    dense_hilbert,
    dense_points,
    dense_project,
    dense_values,
)

DENSE_N = 1 << 14


def cos_field(grid, amp=1.0):
    c = np.zeros(grid.n, dtype=complex)
    c[1] = c[-1] = amp / 2.0
    return SpectralField(grid, c)


def h2_normalized(grid, rng, amp=0.1, n_modes=None, decay=0.7):
    return random_field(grid, rng, n_modes=n_modes, decay=decay,
                        amplitude=amp, normalize="h2")


class TestBuildGauge:
    def test_zero_field(self, grid):
        st = build_gauge(SpectralField.zero(grid), "bo")
        for f in (st.F, st.W, st.w):
            assert np.max(np.abs(f.coeffs)) == 0.0

    def test_phase_of_cos_is_sin(self, grid):
        st = build_gauge(cos_field(grid), "bo")
        assert coeff_distance(st.F, SpectralField.from_function(grid, np.sin)) < 1e-14

    def test_unit_modulus_phase_factor(self, grid, rng):
        v = h2_normalized(grid, rng)
        st = build_gauge(v, "bo")
        vals = synthesize(st.F, 4)
        assert np.max(np.abs(np.abs(np.exp(-1j * vals)) - 1.0)) < 1e-12

    def test_exponential_coefficients_are_bessel_values(self):
        # e^{-i sin x} expands with J_m(-1) at mode m (Jacobi-Anger)
        grid = PeriodicGrid(1.0, 64)
        st = build_gauge(cos_field(grid), "bo")
        E = SpectralField.from_function(grid, lambda x: np.exp(-1j * np.sin(x)))
        for m in range(-4, 5):
            assert np.abs(E.coeffs[m] - scipy.special.jv(m, -1.0)) < 1e-12

    def test_w_matches_dense_quadrature(self):
        grid = PeriodicGrid(1.0, 64)
        v = cos_field(grid)
        st = build_gauge(v, "bo")
        xs = dense_points(grid, DENSE_N)
        dense = -1j * dense_project(
            np.exp(-1j * np.sin(xs)) * np.cos(xs), grid.lam, "plus")
        expected = dense_analyze(dense, grid)
        assert np.max(np.abs(st.w.coeffs - expected)) < 1e-10

    def test_w_is_derivative_of_W(self, rng):
        # resolution must put the product tail at the band edge below 1e-11
        grid = PeriodicGrid(1.0, 128)
        v = random_field(grid, rng, n_modes=24, amplitude=0.1, normalize="h2")
        st = build_gauge(v, "bo")
        assert coeff_distance(st.w, differentiate(st.W, "d_dx", 1)) < 1e-11

    def test_gauged_field_has_zero_mean(self, grid, rng):
        # e^{-iF} v is an exact derivative for the bo gauge
        for _ in range(10):
            v = h2_normalized(grid, rng, amp=0.5)
            F = build_gauge(v, "bo").F
            vals = np.exp(-1j * synthesize(F, 4)) * synthesize(v, 4)
            mean = np.mean(vals)
            assert abs(mean) < 1e-11

    def test_requires_real_field(self, grid):
        f = SpectralField.from_function(grid, lambda x: np.exp(1j * x))
        with pytest.raises(ValueError):
            build_gauge(f, "bo")

    def test_bo_requires_zero_mean(self, grid):
        f = SpectralField.from_function(grid, lambda x: 1.0 + np.cos(x))
        with pytest.raises(ValueError):
            build_gauge(f, "bo")


class TestRhsBo:
    def test_zero(self, grid):
        out = rhs_bo(SpectralField.zero(grid))
        assert np.max(np.abs(out.total.coeffs)) == 0.0

    def test_matches_dense_brute_force(self):
        grid = PeriodicGrid(1.0, 64)
        u = cos_field(grid, amp=1e-3)
        lib = rhs_bo(u)

        xs = dense_points(grid, DENSE_N)
        uv = np.real(dense_values(u, xs))
        Fv = np.real(dense_antiderivative(uv, grid.lam))
        E = np.exp(-1j * Fv)
        ux = dense_ddx(uv, grid.lam)
        t1 = -2.0 * dense_ddx(
            dense_project(dense_project(ux, grid.lam, "minus") * E, grid.lam, "plus"),
            grid.lam)
        t2 = np.mean(uv**2) * dense_project(uv * E, grid.lam, "plus")
        expected = dense_analyze(t1 + t2, grid)
        assert np.max(np.abs(lib.total.coeffs - expected)) < 1e-12

    def test_mean_term_relation_for_cos(self, grid):
        # P_0(u^2) = 1/2 for u = cos, so the mean term is half the projection
        u = cos_field(grid)
        out = rhs_bo(u)
        st = build_gauge(u, "bo")
        proj = project(
            SpectralField(grid, np.fft.fft(
                np.exp(-1j * synthesize(st.F, 1)) * synthesize(u, 1)) / grid.n),
            "plus")
        assert coeff_distance(out.mean_term, 0.5 * proj) < 1e-10

    def test_mean_precondition(self, grid):
        f = SpectralField.from_function(grid, lambda x: 1.0 + np.cos(x))
        with pytest.raises(ValueError, match="C_0"):
            rhs_bo(f)


class TestRhsGbo:
    def test_zero(self, grid):
        out = rhs_gbo_terms(SpectralField.zero(grid), 2)
        for t in (out.a, out.b, out.c, out.d):
            assert np.max(np.abs(t.coeffs)) == 0.0

    def test_k1_has_no_d_term(self, grid, rng):
        out = rhs_gbo_terms(h2_normalized(grid, rng), 1)
        assert np.max(np.abs(out.d.coeffs)) == 0.0

    def test_terms_match_dense_brute_force(self):
        grid = PeriodicGrid(1.0, 64)
        k = 2
        v = SpectralField.from_function(
            grid, lambda x: 0.1 * (np.cos(x) + 0.5 * np.sin(2 * x)))
        lib = rhs_gbo_terms(v, k)

        lam = grid.lam
        xs = dense_points(grid, DENSE_N)
        vv = np.real(dense_values(v, xs))
        Mvk = vv**k - np.mean(vv**k)
        Fv = np.real(dense_antiderivative(Mvk, lam))
        E = np.exp(-1j * Fv)
        vx = dense_ddx(vv, lam)

        a = 1j * np.mean(Mvk**2) * dense_project(E * vv, lam, "plus")
        vxx_minus = dense_project(dense_ddx(vx, lam), lam, "minus")
        b = -2j * dense_project(E * vxx_minus, lam, "plus")
        g = vv ** (k - 1) * dense_project(vx, lam, "minus")
        c = -2 * k * dense_project(E * vv * (g - np.mean(g)), lam, "plus")
        base = vv ** (k - 2) * vx * dense_hilbert(vx, lam)
        h = dense_antiderivative(base - np.mean(base), lam)
        d = -1j * k * (k - 1) * dense_project(E * vv * h, lam, "plus")

        for name, lib_term, dense_term in (
            ("a", lib.a, a), ("b", lib.b, b), ("c", lib.c, c), ("d", lib.d, d)
        ):
            expected = dense_analyze(dense_term, grid)
            assert np.max(np.abs(lib_term.coeffs - expected)) < 1e-11, name

    def test_parameter_validation(self, grid, rng):
        with pytest.raises(ValueError):
            rhs_gbo_terms(h2_normalized(grid, rng), 0)
        bad = SpectralField.from_function(grid, lambda x: 1.0 + np.cos(x))
        with pytest.raises(ValueError):
            rhs_gbo_terms(bad, 2)


class TestInstantaneousResidual:
    def test_zero_field(self, grid):
        res = gauge_residual(SpectralField.zero(grid), "bo")
        assert res.l2 == 0.0

    def test_bo_cosine(self):
        grid = PeriodicGrid(1.0, 256)
        res = gauge_residual(cos_field(grid, 0.01), "bo")
        assert res.l2 < 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_gbo_two_mode_fixture(self, k):
        grid = PeriodicGrid(1.0, 256)
        v = SpectralField.from_function(
            grid, lambda x: 0.01 * (np.cos(x) + np.sin(2 * x)))
        res = gauge_residual(v, "gbo", k=k)
        assert res.l2 < 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gbo_random_ensemble(self, k, rng):
        grid = PeriodicGrid(1.0, 256)
        for _ in range(5):
            v = h2_normalized(grid, rng, amp=0.1, n_modes=127, decay=0.8)
            res = gauge_residual(v, "gbo", k=k)
            assert res.l2 < 1e-9

    def test_bo_random_ensemble(self, rng):
        grid = PeriodicGrid(1.0, 256)
        for _ in range(5):
            v = h2_normalized(grid, rng, amp=0.1, n_modes=127, decay=0.8)
            res = gauge_residual(v, "bo")
            assert res.l2 < 1e-9

    def test_cross_projection_identity(self, rng):
        # P_+(e^{-iF} P_-(u_xx)) - i P_+(u e^{-iF} P_-(u_x))
        #   = d_x P_+(e^{-iF} P_-(u_x)); the collapse behind the bo equation
        grid = PeriodicGrid(1.0, 128)
        u = random_field(grid, rng, n_modes=24, amplitude=0.3, normalize="h2")
        F = build_gauge(u, "bo").F
        E = np.exp(-1j * synthesize(F, 4))
        uv = synthesize(u, 4)
        from bosp import analyze_values_padded

        def plus_of(vals):
            return project(analyze_values_padded(vals, grid), "plus")

        uxx_m = synthesize(project(differentiate(u, "d_dx", 2), "minus"), 4)
        ux_m = synthesize(project(differentiate(u, "d_dx", 1), "minus"), 4)
        lhs = plus_of(E * uxx_m) - 1j * plus_of(uv * E * ux_m)
        rhs = differentiate(plus_of(E * ux_m), "d_dx", 1)
        assert coeff_distance(lhs, rhs) < 1e-11

    def test_resolution_doubling_collapses_residual(self, rng):
        g256 = PeriodicGrid(1.0, 256)
        g128 = PeriodicGrid(1.0, 128)

        worst_128, worst_256 = 0.0, 0.0
        for _ in range(3):
            v = h2_normalized(g256, rng, amp=0.1, n_modes=127, decay=0.8)
            v128 = analyze_values_padded(synthesize(v), g128)
            worst_256 = max(worst_256, gauge_residual(v, "gbo", k=2).l2)
            worst_128 = max(worst_128, gauge_residual(v128, "gbo", k=2).l2)
        assert worst_128 / max(worst_256, 1e-300) >= 1e2

    @pytest.mark.parametrize("variant", ["bo", "gbo"])
    def test_warm_and_cold_residuals_count_the_same_transforms(self, rng, monkeypatch, variant):
        from bosp import gauge

        # residuals once shared one Equation per grid, whose flux kept the
        # transforms of its first use: counted later, bo lost its bo2 flux.
        # Both variants now transform only on the frame grid, one row a time.
        k = 2 if variant == "gbo" else 1
        grid = PeriodicGrid(1.0, 64)
        fields = [h2_normalized(grid, rng, amp=0.1) for _ in range(3)]
        first = [gauge_residual(v, variant, k=k) for v in fields]
        calls = count_transforms(monkeypatch)

        def counted(v):
            start = len(calls)
            return gauge_residual(v, variant, k=k), calls[start:]

        second, warm = zip(*map(counted, fields + [h2_normalized(grid, rng, amp=0.1)]))
        _, cold = counted(h2_normalized(PeriodicGrid(1.375, 64), rng, amp=0.1))
        assert all(counts == cold for counts in warm)
        assert first == list(second[:3])
        assert {(shape, points) for _, shape, points in cold} == {
            ((1,), gauge._frame_points(grid.n, k))}

    def test_w_never_exceeds_v_in_l2(self, rng):
        grid = PeriodicGrid(1.0, 128)
        u0 = h2_normalized(grid, rng, amp=0.3)
        traj = solve(u0, SolverConfig("renormalized_gbo", k=2, dt=1e-3,
                                      t_final=0.1, dealias="alias_free",
                                      sample_stride=10))
        for f in traj:
            w = build_gauge(f, "gbo", 2).w
            assert norm(w, "lp", p=2) <= norm(f, "lp", p=2) + 1e-12


class TestFrame:
    @pytest.mark.parametrize("variant, k, match", [
        ("gbo", 0, "k must be an integer >= 1"), ("gbo", -2, "k must be an integer >= 1"),
        ("gbo", 1.5, "k must be an integer >= 1"), ("bo", 3, "bo variant has k = 1"),
        ("bo", 0, "k must be an integer >= 1"), ("kdv", 1, "variant must be one of bo, gbo"),
    ])
    def test_bad_variant_or_k_named(self, grid, rng, variant, k, match):
        v = h2_normalized(grid, rng)
        traj = solve(v, SolverConfig("linear", dt=0.01, t_final=0.05))
        calls = [lambda: build_gauge(v, variant, k),
                 lambda: gauge_residual(v, variant, k=k),
                 lambda: gauge_residual(traj, variant, k=k),
                 lambda: gauge_lipschitz_gap(v, 2.0 * v, variant, k),
                 lambda: gauge_lipschitz_gap(v, v, variant, k)]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("variant, k", [("bo", 1), ("gbo", 3)])
    def test_one_frame_per_stack(self, rng, monkeypatch, variant, k):
        built = _counting_frames(monkeypatch)
        grid = PeriodicGrid(1.0, 64)
        for _ in range(3):
            gauge_residual(h2_normalized(grid, rng), variant, k=k)
        assert len(built) == 3
        equation = "bo2" if variant == "bo" else "renormalized_gbo"
        traj = solve(h2_normalized(grid, rng),
                     SolverConfig(equation, k=k, dt=1e-3, t_final=0.04, sample_stride=5))
        gauge_residual(traj, variant, k=k)
        assert len(traj) == 9 and len(built) == 3 + 1
        assert built[-1][0].shape == (9, grid.n)

    def test_fft_calls_per_residual(self, rng, monkeypatch):
        grid = PeriodicGrid(1.0, 256)
        v = h2_normalized(grid, rng, amp=0.1, n_modes=127, decay=0.8)
        trajs = [solve(cos_field(PeriodicGrid(1.0, 128), 0.05),
                       SolverConfig("bo2", dt=1e-3, t_final=t_final, sample_stride=10))
                 for t_final in (0.1, 0.3)]
        calls = count_transforms(monkeypatch)
        gauge_residual(v, "gbo", k=3)
        # frame 4, w_t 5, the b, c and d factors 5, and one projection of their
        # sum less w_t's (19 when each term and w_t were projected apart)
        assert len(calls) <= 15
        for traj in trajs:
            calls.clear()
            gauge_residual(traj, "bo")
            # one frame 3, the values of P_-(v_xx) and P_-(v_x) and one
            # projection, however many snapshots; 5 when bo applied d_x after
            # P_+ to P_-(v_x) e^{-iF}, which zeroed the slot n/2 the identity needs
            assert len(calls) <= 6
        assert [len(traj) for traj in trajs] == [11, 31]


class TestFrameGrid:
    """The frame grid: _alias_free_points of degree max(k + 3, 2k), bo as k = 1."""

    @pytest.mark.parametrize("variant, k, n, points", [
        ("bo", 1, 256, 540), ("gbo", 1, 256, 540), ("gbo", 2, 256, 648), ("gbo", 3, 256, 800),
        ("gbo", 4, 256, 1080), ("gbo", 5, 256, 1296), ("gbo", 2, 128, 324),
    ])
    def test_points_per_variant_and_k(self, rng, variant, k, n, points):
        from bosp import gauge

        grid = PeriodicGrid(1.0, n)
        frame = gauge._Frame(h2_normalized(grid, rng).coeffs[None], grid, variant, k)
        assert frame.points == points
        assert frame.E.shape == frame.v_vals.shape == (1, points)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_p0_m2_matches_a_16n_reference(self, k):
        # the mean of the degree-2k product M(v^k)^2; on a fixed 4n grid it
        # was off by 1.7e-8 to 1.6e-4 relative at k = 5 ... 8 on these data,
        # and within 4.3e-16 at k <= 4
        from bosp import gauge

        grid = PeriodicGrid(1.0, 64)
        v = random_field(grid, np.random.default_rng(k), decay=0.95, amplitude=0.5)
        p0_m2, _ = gauge._gbo_factors(gauge._Frame(v.coeffs[None], grid, "gbo", k))
        vk = _real_values(v.coeffs[: grid.n // 2 + 1], 16 * grid.n) ** k
        reference = np.mean((vk - np.mean(vk)) ** 2)
        assert p0_m2.shape == (1, 1)
        assert abs(p0_m2[0, 0] - reference) <= 1e-14 * reference

    @pytest.mark.parametrize("variant, k", [("bo", 1), ("gbo", 1), ("gbo", 2), ("gbo", 3)])
    def test_fused_residual_equals_separately_projected(self, rng, variant, k):
        # gbo projects e^{-iF} (e^{iF} d_t(e^{-iF} v) - X_b - X_c - X_d) once;
        # against w_t - i w_xx - (a + b + c + d) with every term projected
        # apart it differed by at most 4.3e-16 ||w_xx|| (n = 128, 12 fields)
        from bosp import gauge

        grid = PeriodicGrid(1.0, 128)
        fields = [h2_normalized(grid, rng, amp=0.1, decay=0.8) for _ in range(3)]
        frame = gauge._Frame(np.array([v.coeffs for v in fields]), grid, variant, k)
        fused = gauge._residual(frame, gauge._instantaneous_Ev_t(frame))
        wt = gauge._plus(frame.E * gauge._instantaneous_Ev_t(frame), grid)
        for i, v in enumerate(fields):
            w = build_gauge(v, variant, k).w
            if variant == "bo":
                wt_i, rhs = -1j * wt[i], rhs_bo(v).total
            else:
                wt_i, rhs = wt[i], rhs_gbo_terms(v, k).total
            wxx = differentiate(w, "d_dx", 2)
            separate = SpectralField(grid, wt_i) - 1j * wxx - rhs
            diff = SpectralField(grid, fused[i]) - separate
            assert norm(diff, "lp", p=2) <= 1e-14 * norm(wxx, "lp", p=2)

    @pytest.mark.parametrize("variant, k", [("bo", 1), ("gbo", 3)])
    def test_overflow_is_refused_by_name_without_a_warning(self, variant, k):
        """Finite coefficients whose residual exceeds the float range are refused,
        on a field and along a trajectory, and numpy warns of nothing."""
        grid = PeriodicGrid(1.0, 16)
        huge = cos_field(grid, amp=2e200)
        traj = Trajectory(grid, np.linspace(0.0, 0.4, 5), [huge.coeffs[:9]] * 5,
                          "bo2" if variant == "bo" else "renormalized_gbo", k)
        message = f"the {variant} gauge overflows a float at coefficients up to 1e\\+200"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in (huge, traj):
                with pytest.raises(ValueError, match=message):
                    gauge_residual(target, variant, k)


    def test_trajectory_norms_that_overflow_are_refused_by_name(self):
        # at 1e100 the rows are finite and the stencil residual's norms
        # overflow: numpy warned of an overflow in square
        grid = PeriodicGrid(1.0, 16)
        half = cos_field(grid, amp=2e100).coeffs[:9]
        traj = Trajectory(grid, np.linspace(0.0, 0.4, 5), [half] * 5, "bo2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the bo gauge overflows a float"):
                gauge_residual(traj, "bo")


def _counting_frames(monkeypatch):
    """Record the arguments of every gauge frame built."""
    from bosp import gauge

    built = []
    frame = gauge._Frame

    def counting(*args):
        built.append(args)
        return frame(*args)

    monkeypatch.setattr(gauge, "_Frame", counting)
    return built


# Round-off bound for a row of a stack against its stack of one, relative to
# the norm of the right-hand side: swapping the operands of the complex
# product E * P_-(v_xx) in the b term (numpy rounds a * b and b * a apart)
# moved b by at most 3.7e-8 ||RHS||_L2 and 2.6e-7 ||RHS||_H1 over 20 fields
# at n = 64 and 256, gbo k = 1..4 (k = 3 the largest).  The bound leaves a
# margin of 27x and 3.8x over those; with numpy 2.4 on x86-64 the rows are
# bit-identical.
STACK_ROUNDOFF = 1e-6


class TestResidualBatch:
    @pytest.mark.parametrize("variant, k", [("bo", 1), ("gbo", 1), ("gbo", 2),
                                            ("gbo", 3), ("gbo", 4)])
    def test_rows_match_stack_of_one(self, rng, monkeypatch, variant, k):
        from bosp import gauge, spectral

        grid = PeriodicGrid(1.0, 64)
        fields = [h2_normalized(grid, rng, amp=0.1, n_modes=31, decay=0.8) for _ in range(7)]
        singles = [gauge_residual(v, variant, k=k) for v in fields]
        monkeypatch.setattr(spectral, "_STACK_POINTS",
                            3 * gauge._frame_points(grid.n, k))  # 3 rows a stack
        built = _counting_frames(monkeypatch)
        batch = gauge_residual_batch(fields, variant, k)
        assert [len(args[0]) for args in built] == [3, 3, 1]

        stack = gauge._Frame(np.array([v.coeffs for v in fields]), grid, variant, k)
        a, b, c, d = gauge._rhs_gbo(stack)
        terms = [-1j * (b + c), -1j * a] if variant == "bo" else [a, b, c, d]
        for i, v in enumerate(fields):
            one = rhs_bo(v) if variant == "bo" else rhs_gbo_terms(v, k)
            one_terms = [one.dx_term, one.mean_term] if variant == "bo" else [
                one.a, one.b, one.c, one.d]
            rhs_l2, rhs_h1 = norm(one.total, "lp", p=2), norm(one.total, "hs", s=1.0)
            assert rhs_l2 > 0.0
            tol_l2, tol_h1 = STACK_ROUNDOFF * rhs_l2, STACK_ROUNDOFF * rhs_h1
            w = SpectralField(grid, stack.w[i])
            assert norm(w - build_gauge(v, variant, k).w, "lp", p=2) <= tol_l2
            for term, one_term in zip(terms, one_terms):
                diff = SpectralField(grid, term[i]) - one_term
                assert norm(diff, "lp", p=2) <= tol_l2
                assert norm(diff, "hs", s=1.0) <= tol_h1
            assert abs(batch[i].l2 - singles[i].l2) <= tol_l2
            assert abs(batch[i].h1 - singles[i].h1) <= tol_h1

    @pytest.mark.parametrize("bad", ["mean", "complex", "grid"])
    def test_bad_last_field_raises_before_any_frame(self, rng, monkeypatch, bad):
        grid = PeriodicGrid(1.0, 64)
        fields = [h2_normalized(grid, rng) for _ in range(5)]
        if bad == "mean":
            last = SpectralField.from_function(grid, lambda x: 1.0 + np.cos(x))
        elif bad == "complex":
            last = SpectralField.from_function(grid, lambda x: np.exp(1j * x))
        else:
            last = h2_normalized(PeriodicGrid(1.0, 32), rng)
        built = _counting_frames(monkeypatch)
        for variant, k in (("bo", 1), ("gbo", 2)):
            with pytest.raises(ValueError, match="C_0|real|grid"):
                gauge_residual_batch(fields + [last], variant, k)
        assert built == []

    def test_empty_batch(self):
        assert gauge_residual_batch([], "gbo", 2) == []


class TestBoIsGboAtKOne:
    """bo is -i times gbo at k = 1, from the same formulas, so bit for bit."""

    def test_fields(self, rng):
        grid = PeriodicGrid(1.0, 64)
        fields = [h2_normalized(grid, rng, amp=0.1, decay=0.8) for _ in range(4)]
        assert gauge_residual_batch(fields, "bo") == gauge_residual_batch(fields, "gbo", 1)
        for v in fields:
            assert gauge_residual(v, "bo") == gauge_residual(v, "gbo", 1)
            bo, gbo = build_gauge(v, "bo"), build_gauge(v, "gbo", 1)
            assert np.array_equal(bo.F.coeffs, gbo.F.coeffs)
            assert np.array_equal(bo.W.coeffs, gbo.W.coeffs)
            assert np.array_equal(bo.w.coeffs, -1j * gbo.w.coeffs)
            rhs, terms = rhs_bo(v), rhs_gbo_terms(v, 1)
            assert np.array_equal(rhs.dx_term.coeffs, -1j * (terms.b + terms.c).coeffs)
            assert np.array_equal(rhs.mean_term.coeffs, -1j * terms.a.coeffs)

    def test_trajectory(self):
        from bosp import gauge

        traj = solve(cos_field(PeriodicGrid(1.0, 64), 0.05),
                     SolverConfig("bo2", dt=1e-3, t_final=0.1, sample_stride=10))
        assert gauge_residual(traj, "bo") == gauge_residual(traj, "gbo", 1)
        bo_F, bo_w = gauge._frames(traj, "bo", 1, lambda fr: (fr.F, fr.w))
        gbo_F, gbo_w = gauge._frames(traj, "gbo", 1, lambda fr: (fr.F, fr.w))
        assert np.array_equal(bo_F, gbo_F)
        assert np.array_equal(bo_w, -1j * gbo_w)

    def test_full_band_residual_keeps_slot_n_half(self, rng):
        # bo applied d_x after P_+ and took u_t from bo2's conservative flux,
        # both zeroing slot n/2: 1.2e-5 on these fields, gbo k = 1 6.2e-9
        grid = PeriodicGrid(1.0, 64)
        fields = [h2_normalized(grid, rng, amp=0.1, decay=0.8) for _ in range(5)]
        assert max(res.l2 for res in gauge_residual_batch(fields, "bo")) < 1e-7
        assert all(rhs_bo(v).dx_term.coeffs[grid.n // 2] != 0.0 for v in fields)


class TestTrajectoryResidual:
    def _make_traj(self, stride):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_field(grid, 0.05)
        cfg = SolverConfig("bo2", dt=1e-3, t_final=0.2, dealias="alias_free",
                           sample_stride=stride)
        return solve(u0, cfg)

    def test_fourth_order_in_sampling_interval(self):
        errs, hs = [], []
        for stride in (20, 10, 5):
            traj = self._make_traj(stride)
            res = gauge_residual(traj, "bo")
            errs.append(res.l2)
            hs.append(traj.sample_dt)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 3.5 <= slope <= 4.3

    def test_needs_five_snapshots(self):
        from bosp import Trajectory

        traj = self._make_traj(50)  # 5 snapshots: ok
        gauge_residual(traj, "bo")
        short = Trajectory(traj.grid, traj.times[:4], traj.half_coeffs[:4],
                           traj.equation, traj.k)
        with pytest.raises(ValueError):
            gauge_residual(short, "bo")

    @pytest.mark.parametrize("k", [1, 3])
    def test_snapshot_w_stack_equals_build_gauge(self, monkeypatch, k):
        from bosp import gauge, spectral

        grid = PeriodicGrid(1.0, 32)
        v0 = random_field(grid, np.random.default_rng(8), n_modes=15, amplitude=0.3)
        traj = solve(v0, SolverConfig("renormalized_gbo", k=k, dt=1e-3, t_final=0.01))
        monkeypatch.setattr(spectral, "_STACK_POINTS",
                            3 * gauge._frame_points(grid.n, k))  # 3 rows a stack
        built = _counting_frames(monkeypatch)
        (ws,) = gauge._frames(traj, "gbo", k, lambda fr: (fr.w,))
        assert [len(args[0]) for args in built] == [3, 3, 3, 2]
        assert np.array_equal(ws, [build_gauge(f, "gbo", k).w.coeffs for f in traj])

    def test_mode_validation(self, grid, rng):
        with pytest.raises(TypeError, match="SpectralField or a Trajectory"):
            gauge_residual(h2_normalized(grid, rng).coeffs, "bo")


class TestReconstruction:
    def test_zero(self, grid):
        st = build_gauge(SpectralField.zero(grid), "bo")
        out = reconstruct_u(st, SpectralField.zero(grid))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_cosine(self, grid):
        v = cos_field(grid)
        st = build_gauge(v, "bo")
        out = reconstruct_u(st, v)
        assert norm(out - v, "lp", p=2) < 1e-11

    def test_random_fields(self, rng):
        grid = PeriodicGrid(1.0, 128)
        for _ in range(5):
            v = random_field(grid, rng, n_modes=16, amplitude=0.5, normalize="l2")
            st = build_gauge(v, "bo")
            assert norm(reconstruct_u(st, v) - v, "lp", p=2) < 1e-10

    def test_gbo_refused(self, grid, rng):
        v = h2_normalized(grid, rng)
        st = build_gauge(v, "gbo", 2)
        with pytest.raises(ValueError):
            reconstruct_u(st, v)

    @pytest.mark.parametrize("bad, match", [
        ("grid", "needs fields on one grid: field 1 is on"),
        ("mean", "the bo gauge needs zero-mean data: field 0 has |C_0| = 3.000e-01"),
        ("complex", "needs real fields: field 0 is complex"),
    ])
    def test_bad_v_refused(self, bad, match):
        # each was accepted: a field on the other grid came back, a mean of
        # 0.3 came back off by 0.3, and a complex v was reconstructed
        v1 = random_field(PeriodicGrid(1.0, 64), np.random.default_rng(3), n_modes=8)
        v = {"grid": random_field(PeriodicGrid(2.0, 64), np.random.default_rng(4), n_modes=8),
             "mean": random_field(v1.grid, np.random.default_rng(4), n_modes=8, mean=0.3),
             "complex": 1j * v1}[bad]
        with pytest.raises(ValueError, match=re.escape(match)):
            reconstruct_u(build_gauge(v1), v)


class TestLipschitzGap:
    def test_identical_inputs_degenerate(self, grid, rng):
        p = h2_normalized(grid, rng)
        out = gauge_lipschitz_gap(p, p)
        assert out.degenerate and out.gap == 0.0 and out.bound_ratio == 0.0

    def test_single_mode_bound(self, grid):
        eps = 1e-2
        p1 = cos_field(grid, eps)
        p2 = SpectralField.zero(grid)
        out = gauge_lipschitz_gap(p1, p2)
        assert out.gap <= eps + 1e-12
        assert out.bound_ratio <= 1.0 / np.sqrt(np.pi) + 1e-6

    def test_stability_across_circle_sizes(self, rng):
        maxima = []
        for lam in (1.0, 4.0, 16.0):
            grid = PeriodicGrid(lam, 128)
            vals = [
                gauge_lipschitz_gap(
                    random_field(grid, rng, n_modes=16, amplitude=0.25, normalize="l2"),
                    random_field(grid, rng, n_modes=16, amplitude=0.25, normalize="l2"),
                ).bound_ratio
                for _ in range(20)
            ]
            maxima.append(max(vals))
        assert all(np.isfinite(maxima))
        assert max(maxima) / min(maxima) < 3.0


    def test_overflowing_distance_is_refused_by_name_without_a_warning(self):
        # the phases are finite, and norm(phi1 - phi2, "lp", p=2) warned
        grid = PeriodicGrid(1.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the lp norm overflows a float"):
                gauge_lipschitz_gap(cos_field(grid, 2e200), SpectralField.zero(grid))


class TestLipschitzGapCost:
    @pytest.mark.parametrize("variant, k, most", [("bo", 1, 1), ("gbo", 1, 1), ("gbo", 2, 6)])
    def test_fft_calls_per_gap(self, rng, monkeypatch, variant, k, most):
        # one phase per stack: at k = 1 e^{-iF} alone, from v's own rows; at
        # k >= 2 also v^k (gbo k = 1 took 3 when its phase came from v^1)
        grid = PeriodicGrid(1.0, 128)
        p1, p2 = h2_normalized(grid, rng), h2_normalized(grid, rng)
        expected = gauge_lipschitz_gap(p1, p2, variant, k)
        calls = count_transforms(monkeypatch)
        assert gauge_lipschitz_gap(p1, p2, variant, k) == expected
        assert len(calls) <= most


def _nyquist_trajectory(equation, k, nyquist):
    """Five snapshots at n = 16 with mean 0.3 and the given slot-n/2 value."""
    grid = PeriodicGrid(1.0, 16)
    rng = np.random.default_rng(4)
    half = 0.1 * (rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9)))
    half[:, 0] = 0.3
    half[:, -1] = nyquist
    return Trajectory(grid, np.linspace(0.0, 0.4, 5), half, equation, k)


def _shifted_per_snapshot(traj):
    """The translation maps as full-order per-snapshot expressions."""
    q = traj.grid.freqs
    if traj.equation == "gbo" and traj.k != 1:
        k, n = traj.k, traj.grid.n
        nbig = _alias_free_points(n, k)
        means = np.array([np.mean(_real_values(f.coeffs[: n // 2 + 1], nbig) ** k)
                          for f in traj])
        dt = traj.sample_dt
        shifts = np.concatenate(([0.0], np.cumsum(0.5 * dt * (means[1:] + means[:-1]))))
        return [2.0 ** (-1.0 / k) * f.coeffs * np.exp(-1j * q * s)
                for s, f in zip(shifts, traj)]
    gamma = float(traj[0].coeffs[0].real)
    rate = (2.0 if traj.equation == "bo2" else 1.0) * gamma
    out = []
    for t, f in zip(traj.times, traj):
        shifted = f.coeffs * np.exp(-1j * q * rate * t)
        shifted[0] -= gamma
        out.append(shifted)
    return out


class TestTranslationKeepsNyquist:
    MAPS = [(remove_mean_bo, "gbo", 1), (remove_mean_bo, "bo2", 1), (renormalize_gbo, "gbo", 2)]

    @pytest.mark.parametrize("remap, equation, k", MAPS)
    def test_nyquist_content_stays_real(self, remap, equation, k):
        traj = _nyquist_trajectory(equation, k, 0.01)
        out = remap(traj)
        amp = 2.0 ** -0.5 if remap is renormalize_gbo else 1.0
        assert np.array_equal(out.half_coeffs[:, -1], amp * traj.half_coeffs[:, -1])
        for f in out:
            assert symmetry_defect(f.coeffs) == 0.0

    @pytest.mark.parametrize("remap, equation, k", MAPS)
    def test_without_nyquist_content_unchanged(self, remap, equation, k):
        traj = _nyquist_trajectory(equation, k, 0.0)
        out = remap(traj)
        for f, expected in zip(out, _shifted_per_snapshot(traj)):
            assert np.array_equal(f.coeffs, expected)


class TestMeanRemoval:
    def test_zero_mean_input_unchanged(self, rng):
        grid = PeriodicGrid(1.0, 128)
        u0 = random_field(grid, rng, n_modes=8, amplitude=0.1, normalize="h1")
        traj = solve(u0, SolverConfig("gbo", dt=1e-3, t_final=0.05,
                                      dealias="alias_free", sample_stride=10))
        out = remove_mean_bo(traj)
        for a, b in zip(traj, out):
            assert coeff_distance(a, b) < 1e-15

    def test_constant_maps_to_zero(self, grid):
        c = np.zeros(grid.n, dtype=complex)
        c[0] = 0.8
        u0 = SpectralField(grid, c)
        traj = solve(u0, SolverConfig("bo2", dt=0.05, t_final=0.2))
        out = remove_mean_bo(traj)
        for f in out:
            assert np.max(np.abs(f.coeffs)) < 1e-14

    def test_bo2_with_mean_satisfies_equation_after_shift(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = SpectralField.from_function(grid, lambda x: 1.0 + 0.1 * np.cos(x))
        traj = solve(u0, SolverConfig("bo2", dt=5e-4, t_final=0.2,
                                      dealias="alias_free", sample_stride=2))
        out = remove_mean_bo(traj)
        assert max(abs(f.coeffs[0]) for f in out) < 1e-12
        assert pde_residual(out).l2 < 1e-8

    def test_wrong_tag_rejected(self, grid):
        f = SpectralField.zero(grid)
        traj = solve(f, SolverConfig("gbo", k=2, dt=0.05, t_final=0.2))
        with pytest.raises(ValueError):
            remove_mean_bo(traj)


class TestRenormalization:
    def test_zero(self, grid):
        traj = solve(SpectralField.zero(grid),
                     SolverConfig("gbo", k=2, dt=0.05, t_final=0.2))
        out = renormalize_gbo(traj)
        assert out.equation == "renormalized_gbo"
        for f in out:
            assert np.max(np.abs(f.coeffs)) < 1e-14

    def test_constant_becomes_scaled_steady_state(self, grid):
        c = np.zeros(grid.n, dtype=complex)
        c[0] = 0.6
        u0 = SpectralField(grid, c)
        traj = solve(u0, SolverConfig("gbo", k=2, dt=0.05, t_final=0.2))
        out = renormalize_gbo(traj)
        # amplitude 2^{-1/2} * 0.6; constants are steady for the new equation
        for f in out:
            assert abs(f.coeffs[0] - 0.6 / np.sqrt(2)) < 1e-14
            assert np.max(np.abs(f.coeffs[1:])) < 1e-14

    def test_renormalized_equation_residual(self):
        grid = PeriodicGrid(1.0, 128)
        u0 = cos_field(grid, 0.1)
        traj = solve(u0, SolverConfig("gbo", k=2, dt=5e-4, t_final=0.5,
                                      dealias="alias_free", sample_stride=2))
        out = renormalize_gbo(traj)
        assert pde_residual(out).l2 < 1e-6

    def test_wrong_tag_rejected(self, grid):
        traj = solve(SpectralField.zero(grid),
                     SolverConfig("bo2", dt=0.05, t_final=0.2))
        with pytest.raises(ValueError):
            renormalize_gbo(traj)


class TestPdeResidualOverflow:
    @pytest.mark.parametrize("equation, k", [("bo2", 1), ("gbo", 3), ("renormalized_gbo", 2)])
    def test_overflow_is_refused_by_name_without_a_warning(self, equation, k):
        # numpy warned of an overflow in multiply, and the norms came back inf
        grid = PeriodicGrid(1.0, 16)
        huge = cos_field(grid, amp=2e200)
        traj = Trajectory(grid, np.linspace(0.0, 0.4, 5), [huge.coeffs[:9]] * 5, equation, k)
        message = f"the {equation} equation overflows a float at coefficients up to 1e\\+200"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                pde_residual(traj)


def reference_rhs(f, equation, k):
    """Non-conservative -H u_xx + N(u) built from public operators."""
    lin = -1.0 * hilbert(differentiate(f, "d_dx", 2))
    vals = synthesize(f, 4)
    if equation == "linear":
        return lin
    if equation == "bo2":
        return lin + differentiate(analyze_values_padded(vals ** 2, f.grid), "d_dx", 1)
    if equation == "gbo":
        flux = analyze_values_padded(vals ** (k + 1), f.grid)
        return lin + (1.0 / (k + 1)) * differentiate(flux, "d_dx", 1)
    mfk = vals ** k - np.mean(vals ** k)  # renormalized_gbo: 2 M(v^k) v_x
    vx = synthesize(differentiate(f, "d_dx", 1), 4)
    return lin + analyze_values_padded(2.0 * mfk * vx, f.grid)


class TestRightHandSides:
    """``Equation.rhs`` at alias_free against a non-conservative reference.

    At slot n/2 the renormalized forms differ on purpose: the reference's
    non-conservative 2 M(v^k) v_x keeps the folded Nyquist value, while the
    solver's conservative d_x(...) zeroes it through the odd iq multiplier.
    """

    @pytest.mark.parametrize("equation, k", [
        ("linear", 1), ("gbo", 1), ("gbo", 3), ("bo2", 1),
        ("renormalized_gbo", 2), ("renormalized_gbo", 3),
    ])
    def test_solver_rhs_matches_gauge_rhs(self, rng, equation, k):
        grid = PeriodicGrid(1.0, 64)
        half = grid.n // 2
        v = h2_normalized(grid, rng, amp=0.5, decay=0.9)
        solver = Equation(grid, equation, k).rhs(v.coeffs[: half + 1])
        ref = reference_rhs(v, equation, k).coeffs
        others = np.arange(grid.n) != half
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(solver - ref)[others]) <= 1e-14 * scale
        assert solver[half] == 0.0
        if equation == "renormalized_gbo":
            assert abs(ref[half]) > 1e-12 * scale  # far above round-off
        else:
            assert ref[half] == 0.0

    def test_unknown_equation_rejected(self):
        with pytest.raises(ValueError, match="equation must be one of"):
            Equation(PeriodicGrid(1.0, 16), "kdv")
