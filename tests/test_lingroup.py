"""Free propagators: group law, unitarity, residual order, mixed norm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosp import (
    ExperimentConfig,
    PeriodicGrid,
    SpectralField,
    differentiate,
    hilbert,
    norm,
    propagate,
    random_field,
    random_fields,
    run_experiment,
    strichartz_norm,
    strichartz_norms,
    synthesize,
)

from bosp import lingroup
from bosp.lingroup import GROUP_KINDS
from bosp.spectral import _symbol

from conftest import (QUAD_PAD, coeff_distance, l4_sums, strichartz_norm_reference,
                      trapezoid_strichartz_norm)


def field_from(grid, fn):
    return SpectralField.from_function(grid, fn)


class TestPropagate:
    def test_constant_is_fixed(self, grid):
        f = field_from(grid, lambda x: np.ones_like(x))
        for t in (0.3, -2.0, 17.0):
            assert coeff_distance(propagate(f, t), f) < 1e-15

    def test_translation_of_unit_mode(self, grid):
        f = field_from(grid, lambda x: np.exp(1j * x))
        out = propagate(f, 0.7)
        expected = field_from(grid, lambda x: np.exp(1j * (x - 0.7)))
        assert coeff_distance(out, expected) < 1e-14

    def test_zero_time_identity(self, random_fields):
        f = random_fields()
        assert np.array_equal(propagate(f, 0.0).coeffs, f.coeffs)

    def test_group_law_and_unitarity(self, rng):
        grid = PeriodicGrid(2.0, 64)
        for _ in range(100):
            f = random_field(grid, rng, n_modes=24)
            s, t = rng.uniform(-5, 5, size=2)
            once = propagate(f, s + t)
            twice = propagate(propagate(f, t), s)
            assert coeff_distance(once, twice) < 1e-13
            assert norm(propagate(f, t), "lp", p=2) == pytest.approx(
                norm(f, "lp", p=2), rel=1e-13)

    def test_real_preserved_by_dispersive_group(self, random_fields):
        f = random_fields()
        assert propagate(f, 1.3).is_real

    def test_schrodinger_differs_on_negative_modes(self, grid):
        f = field_from(grid, lambda x: np.exp(-1j * x))
        t = 0.5
        bo = propagate(f, t, "bo_group")
        schro = propagate(f, t, "schrodinger_group")
        # symbol at q = -1: bo phase exp(+it), schrodinger phase exp(-it)
        assert np.abs(bo.coeffs[-1] - np.exp(1j * t)) < 1e-14
        assert np.abs(schro.coeffs[-1] - np.exp(-1j * t)) < 1e-14

    def test_unknown_kind(self, random_fields):
        with pytest.raises(ValueError):
            propagate(random_fields(), 1.0, "airy_group")

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", GROUP_KINDS)
    def test_non_finite_time_refused(self, random_fields, t, kind):
        # nan gave a NaN field and inf an invalid-value warning (0 * inf at q = 0)
        with pytest.raises(ValueError, match=f"^t must be finite, got {t!r}$"):
            propagate(random_fields(), t, kind)

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    def test_group_symbol_is_the_symbol_table_array(self, kind):
        grid = PeriodicGrid(1.5, 32)
        assert lingroup.group_symbol(grid, kind) is _symbol(grid, kind)

    @pytest.mark.parametrize("kind", ["airy_group", "d_dx", "hilbert"])
    def test_group_symbol_serves_group_kinds_only(self, kind):
        with pytest.raises(ValueError, match="kind must be one of bo_group, schrodinger_group"):
            lingroup.group_symbol(PeriodicGrid(1.0, 16), kind)


class TestLinearResidual:
    def test_second_order_in_time_step(self, rng):
        # centered difference of the free wave vs -H u_xx
        grid = PeriodicGrid(1.0, 64)
        phi = random_field(grid, rng, n_modes=8, decay=0.5)
        t = 0.37

        def residual(h):
            up = propagate(phi, t + h)
            um = propagate(phi, t - h)
            dudt = (1.0 / (2 * h)) * (up - um)
            rhs = -1.0 * hilbert(differentiate(propagate(phi, t), "d_dx", 2))
            return norm(dudt - rhs, "lp", p=2)

        hs = np.array([2e-2, 1e-2, 5e-3, 2.5e-3])
        errs = np.array([residual(h) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2


class TestStrichartzNorm:
    def test_constant_field(self):
        grid = PeriodicGrid(1.0, 32)
        f = field_from(grid, lambda x: np.ones_like(x))
        val = strichartz_norm(f, 1.0)
        assert val == pytest.approx((2 * np.pi) ** 0.25, rel=1e-12)

    def test_single_mode_has_unit_modulus(self):
        grid = PeriodicGrid(1.0, 32)
        f = field_from(grid, lambda x: np.exp(1j * x))
        val = strichartz_norm(f, 1.0)
        assert val == pytest.approx((2 * np.pi) ** 0.25, rel=1e-12)

    def test_matches_dense_quadrature_oracle(self, rng):
        grid = PeriodicGrid(2.0, 64)
        phi = random_field(grid, rng, n_modes=8, decay=0.75, normalize="l2")
        lib = strichartz_norm(phi, 1.0)

        # oracle: 4096-step trapezoid, 8x spatial oversampling, direct phases
        n_t, pad = 4096, 8
        q = grid.freqs
        sym = -1j * q * np.abs(q)
        times = np.linspace(0.0, 1.0, n_t + 1)
        big_n = pad * grid.n
        acc = np.empty(times.size)
        half = grid.n // 2
        for i, t in enumerate(times):
            c = phi.coeffs * np.exp(sym * t)
            big = np.zeros(big_n, dtype=complex)
            big[: half + 1] = c[: half + 1]
            big[big_n - (half - 1):] = c[half + 1:]
            vals = np.fft.ifft(big * big_n)
            acc[i] = grid.circumference / big_n * np.sum(np.abs(vals) ** 4)
        oracle = np.trapezoid(acc, times) ** 0.25
        assert lib == pytest.approx(oracle, rel=1e-6)

    def test_parameter_validation(self, random_fields):
        f = random_fields()
        with pytest.raises(ValueError):
            strichartz_norm(f, 0.0)
        with pytest.raises(ValueError):
            strichartz_norm(f, 1.0, kind="airy_group")

    def test_schrodinger_kind(self):
        grid = PeriodicGrid(1.0, 32)
        f = field_from(grid, lambda x: np.ones_like(x))
        val = strichartz_norm(f, 1.0, kind="schrodinger_group")
        assert val == pytest.approx((2 * np.pi) ** 0.25, rel=1e-12)

    def test_lambda_boundedness_small_scan(self, rng):
        maxima = []
        for lam in (1.0, 4.0):
            grid = PeriodicGrid(lam, 64)
            vals = [
                strichartz_norm(
                    random_field(grid, rng, n_modes=12, decay=0.8, normalize="l2"),
                    1.0)
                for _ in range(10)
            ]
            maxima.append(max(vals))
        assert max(maxima) / min(maxima) < 2.0

    @pytest.mark.parametrize("real_rows", [True, False])
    def test_block_padding_matches_row_padding(self, rng, real_rows):
        grid = PeriodicGrid(2.0, 32)
        n = grid.n
        rows = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
        if real_rows:  # exactly conjugate symmetric, Nyquist slot live
            rows[:, [0, n // 2]] = rows[:, [0, n // 2]].real
            rows[:, n // 2 + 1:] = np.conj(rows[:, n // 2 - 1: 0: -1])
        assert all(SpectralField(grid, row).is_real == real_rows for row in rows)
        w = grid.circumference / (QUAD_PAD * grid.n)
        sums = [w * np.sum(np.abs(synthesize(SpectralField(grid, row),
                                             QUAD_PAD)) ** 4) for row in rows]
        assert np.array_equal(l4_sums(rows, grid, real_rows), sums)


def _complex_field(grid, rng, n_modes):
    c = np.zeros(grid.n, dtype=complex)
    c[: n_modes + 1] = rng.standard_normal(n_modes + 1) + 1j * rng.standard_normal(n_modes + 1)
    c[-n_modes:] = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return SpectralField(grid, c)


class TestExactStrichartzNorm:
    """The resonance sum against the trapezoid cross-check."""

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("lam", [1.0, 4.0, 16.0])
    def test_matches_fine_quadrature(self, rng, kind, lam):
        grid = PeriodicGrid(lam, 64)
        for f in (random_field(grid, rng, n_modes=12, decay=0.8, normalize="l2"),
                  _complex_field(grid, rng, 6)):
            exact = strichartz_norm(f, 1.0, kind=kind)
            assert exact == pytest.approx(trapezoid_strichartz_norm(f, 1.0, 16384, kind=kind),
                                          rel=1e-9)

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("real", [True, False])
    def test_populated_nyquist_slot(self, rng, kind, real):
        # real bo rows split the slot n/2 into +-n/2 halves, complex rows keep
        # it whole at +n/2: the exact sum must follow the quadrature either way
        grid = PeriodicGrid(2.0, 16)
        f = random_field(grid, rng, n_modes=7, decay=0.9, normalize="l2")
        c = f.coeffs.copy()
        c[grid.n // 2] = 0.6 if real else 0.6 - 0.4j
        if not real:
            c[1] += 0.3j
        f = SpectralField(grid, c)
        exact = strichartz_norm(f, 0.5, kind=kind)
        assert exact == pytest.approx(trapezoid_strichartz_norm(f, 0.5, 16384, kind=kind),
                                      rel=1e-9)

    @pytest.mark.parametrize("value, kind, mean_u4", [
        (1.0, "bo_group", 3 / 8),        # real under bo: split, u = cos(n x / 2)
        (1.0, "schrodinger_group", 1.0),  # real, but the Schroedinger group keeps it whole
        (1j, "bo_group", 1.0),           # complex: whole at +n/2, |u| = |C|
        (1j, "schrodinger_group", 1.0),
    ])
    def test_nyquist_convention_changes_the_value(self, value, kind, mean_u4):
        # a lone Nyquist mode is constant in time under both groups, so each
        # convention has a closed form: 2 pi lam T mean(|u|^4)
        grid = PeriodicGrid(1.0, 16)
        c = np.zeros(grid.n, dtype=complex)
        c[grid.n // 2] = value
        f = SpectralField(grid, c)
        assert f.is_real == (value == 1.0)
        integral = strichartz_norm(f, 1.0, kind=kind) ** 4
        assert integral == pytest.approx(2 * np.pi * mean_u4, rel=1e-13)
        assert integral == pytest.approx(
            trapezoid_strichartz_norm(f, 1.0, 16, kind=kind) ** 4, rel=1e-13)

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("lam", [1.0, 1.3e154])
    def test_lone_mode_pair_up_to_the_largest_circle(self, kind, lam):
        # u = cos(x / lam) moves but keeps its modulus under both groups, so
        # the integral is 2 pi lam T mean(cos^4); the resonance keys scale
        # by lam ** 2, a finite float up to lam ~ 1.34e154
        grid = PeriodicGrid(lam, 16)
        c = np.zeros(grid.n, dtype=complex)
        c[1] = c[-1] = 0.5
        integral = strichartz_norm(SpectralField(grid, c), 1.0, kind=kind) ** 4
        assert integral == pytest.approx(2 * np.pi * lam * 3 / 8, rel=1e-13)

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    def test_trapezoid_error_is_second_order(self, rng, kind):
        grid = PeriodicGrid(1.0, 64)
        f = random_field(grid, rng, n_modes=12, decay=0.8, normalize="l2")
        exact = strichartz_norm(f, 1.0, kind=kind)
        n_ts = np.array([256, 512, 1024, 2048, 4096])
        errs = [abs(trapezoid_strichartz_norm(f, 1.0, int(m), kind=kind) - exact) for m in n_ts]
        slope = np.polyfit(np.log(n_ts), np.log(errs), 1)[0]
        assert -2.2 <= slope <= -1.8

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), lam=st.sampled_from([0.5, 1.0, 3.0, 16.0]),
           n_modes=st.integers(1, 8), kind=st.sampled_from(GROUP_KINDS))
    def test_small_horizon_limit(self, seed, lam, n_modes, kind):
        grid = PeriodicGrid(lam, 32)
        f = random_field(grid, np.random.default_rng(seed), n_modes=n_modes,
                         decay=0.9, normalize="l2")
        horizon = 1e-7 * lam ** 2  # the same time in units of the phase speed
        integral = strichartz_norm(f, horizon, kind=kind) ** 4
        assert integral == pytest.approx(horizon * norm(f, "lp", p=4) ** 4, rel=1e-4)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.5, 4.0),
           dilation=st.floats(0.25, 8.0), horizon=st.floats(0.05, 2.0),
           complex_rows=st.booleans(), kind=st.sampled_from(GROUP_KINDS))
    def test_dilation_law(self, seed, lam, dilation, horizon, complex_rows, kind):
        # f_d(x) = f(x/d) on the circle d times larger: same coefficients, and
        # its integral over d^2 T is d^3 times that of f over T
        rng = np.random.default_rng(seed)
        grid = PeriodicGrid(lam, 32)
        f = (_complex_field(grid, rng, 5) if complex_rows
             else random_field(grid, rng, n_modes=10, decay=0.85, normalize="l2"))
        f_d = SpectralField(PeriodicGrid(lam * dilation, grid.n), f.coeffs)
        big = strichartz_norm(f_d, dilation ** 2 * horizon, kind=kind) ** 4
        small = strichartz_norm(f, horizon, kind=kind) ** 4
        assert big == pytest.approx(dilation ** 3 * small, rel=1e-9)


def _stack_rows(grid, rng, real):
    """Rows with different supports: plain, some modes zeroed, Nyquist slot set, zero."""
    if real:
        rows = [random_field(grid, rng, n_modes=11, decay=0.85, normalize="l2")
                for _ in range(4)]
    else:
        rows = [_complex_field(grid, rng, 6) for _ in range(4)]
    c = rows[1].coeffs.copy()
    c[[2, 5, -2, -5]] = 0.0
    rows[1] = SpectralField(grid, c)
    c = rows[2].coeffs.copy()
    c[grid.n // 2] = 0.4 if real else 0.3 - 0.5j
    rows[2] = SpectralField(grid, c)
    rows.append(SpectralField(grid, np.zeros(grid.n, dtype=complex)))
    return rows


def _count_chunks_and_stacks(monkeypatch):
    """Record the m-chunks built and the row count of each stack summed."""
    calls = {"chunks": 0, "stacks": []}
    structure, sums = lingroup._chunk_structure, lingroup._chunk_sums

    def count_chunk(*args):
        calls["chunks"] += 1
        return structure(*args)

    def count_stack(chunk, coeffs, *args):
        calls["stacks"].append(coeffs.shape[1])
        return sums(chunk, coeffs, *args)

    monkeypatch.setattr(lingroup, "_chunk_structure", count_chunk)
    monkeypatch.setattr(lingroup, "_chunk_sums", count_stack)
    return calls


class TestStackedStrichartzNorms:
    """One resonance structure per m-chunk against the per-field sum."""

    CASES = [(True, "bo_group"), (False, "bo_group"), (False, "schrodinger_group")]

    @pytest.mark.parametrize("real, kind", CASES)
    @pytest.mark.parametrize("lam", [1.0, 16.0])
    @pytest.mark.parametrize("entries", [None, 150])
    def test_matches_per_field_reference(self, monkeypatch, rng, real, kind, lam, entries):
        calls = _count_chunks_and_stacks(monkeypatch)
        if entries is not None:
            monkeypatch.setattr(lingroup, "_EXACT_ENTRIES", entries)
        grid = PeriodicGrid(lam, 32)
        rows = _stack_rows(grid, rng, real)
        got = strichartz_norms(rows, 0.7, kind=kind)
        want = [strichartz_norm_reference(f, 0.7, kind=kind) for f in rows]
        assert got[-1] == want[-1] == 0.0
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if entries is None:
            assert calls["chunks"] == 1 and calls["stacks"] == [len(rows)]
        else:  # several m-chunks, each over rows cut into stacks
            assert calls["chunks"] > 1 and max(calls["stacks"]) < len(rows)

    @pytest.mark.parametrize("real, kind", CASES)
    @pytest.mark.parametrize("lam", [1.0, 16.0])
    def test_stack_of_one_is_the_per_field_sum(self, rng, real, kind, lam):
        for f in _stack_rows(PeriodicGrid(lam, 32), rng, real):
            assert strichartz_norm(f, 0.7, kind=kind) == strichartz_norm_reference(f, 0.7, kind=kind)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 8.0, 16.0])
    def test_closed_form_rows_in_a_random_stack(self, rng, lam):
        # A cos(a x/lam) moves rigidly under the bo group, so its L^4_x norm
        # is constant; a single complex mode has |u| = A at all times
        grid, amp, a, horizon = PeriodicGrid(lam, 32), 1.7, 3, 0.6
        c = np.zeros(grid.n, dtype=complex)
        c[[a, -a]] = amp / 2
        real = [random_field(grid, rng, n_modes=10, normalize="l2"),
                SpectralField(grid, c),
                random_field(grid, rng, n_modes=14, normalize="l2")]
        cos_norm = strichartz_norms(real, horizon)[1]
        assert cos_norm == pytest.approx(
            (2 * np.pi * lam * horizon * 3 * amp ** 4 / 8) ** 0.25, rel=1e-13)
        c = np.zeros(grid.n, dtype=complex)
        c[a] = amp
        cplx = [_complex_field(grid, rng, 5), SpectralField(grid, c), _complex_field(grid, rng, 7)]
        for kind in GROUP_KINDS:
            assert strichartz_norms(cplx, horizon, kind=kind)[1] == pytest.approx(
                (2 * np.pi * lam * horizon * amp ** 4) ** 0.25, rel=1e-13)

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan"), -1.0, 0.0])
    def test_non_finite_or_non_positive_horizon(self, random_fields, horizon):
        f = random_fields()
        with pytest.raises(ValueError, match="finite and positive"):
            strichartz_norm(f, horizon)
        with pytest.raises(ValueError, match="finite and positive"):
            strichartz_norms([f, f], horizon)

    def test_malformed_stacks_fail_before_any_work(self, monkeypatch, rng):
        monkeypatch.setattr(lingroup, "_wave_stack",
                            lambda *a: pytest.fail("work started on a malformed stack"))
        f = random_field(PeriodicGrid(1.0, 32), rng, n_modes=8)
        with pytest.raises(ValueError, match="one grid"):
            strichartz_norms([f, random_field(PeriodicGrid(2.0, 32), rng, n_modes=8)], 1.0)
        with pytest.raises(ValueError, match="one grid"):
            strichartz_norms([f, random_field(PeriodicGrid(1.0, 64), rng, n_modes=8)], 1.0)
        with pytest.raises(ValueError, match="kind must be one of bo_group, schrodinger_group"):
            strichartz_norms([f], 1.0, kind="airy_group")
        c = f.coeffs.copy()
        c[3] = np.nan
        with pytest.raises(ValueError, match="field 1 is non-finite"):
            strichartz_norms([f, SpectralField(f.grid, c)], 1.0)
        assert strichartz_norms([], 1.0) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_is_refused_by_name(self, bad):
        # it returned [nan]; a complex row beside it stays accepted
        grid = PeriodicGrid(1.0, 16)
        c = np.zeros(grid.n, dtype=complex)
        c[1] = 0.1j
        broken = c.copy()
        broken[2] = bad
        fields = [SpectralField(grid, c), SpectralField(grid, broken)]
        assert not fields[0].is_real and np.isfinite(strichartz_norms(fields[:1], 1.0)).all()
        with pytest.raises(ValueError) as exc:
            strichartz_norms(fields, 1.0)
        assert str(exc.value) == ("strichartz_norms needs finite fields: field 1 is non-finite "
                                  "(a coefficient is NaN or infinite)")


class TestPairTable:
    """The lam-free pairs and key groups, built once per support."""

    def test_the_scan_builds_one_table_for_its_circles(self):
        lingroup._pair_table.cache_clear()
        cfg = ExperimentConfig("strichartz-scan")
        rep = run_experiment(cfg)
        info = lingroup._pair_table.cache_info()
        assert len({r["lam"] for r in rep.records}) == len(cfg.lambdas) == 5
        assert (info.misses, info.hits) == (1, len(cfg.lambdas) - 1)

    @pytest.mark.parametrize("real, kind", TestStackedStrichartzNorms.CASES)
    def test_a_cache_hit_is_bit_identical_to_a_cold_build(self, rng, real, kind):
        stacks = [_stack_rows(PeriodicGrid(lam, 32), rng, real) for lam in (1.0, 16.0)]
        lingroup._pair_table.cache_clear()
        warm = [strichartz_norms(rows, 0.7, kind=kind) for rows in stacks]
        assert lingroup._pair_table.cache_info().hits >= 1
        for rows, got in zip(stacks, warm):
            lingroup._pair_table.cache_clear()
            assert strichartz_norms(rows, 0.7, kind=kind) == got
            assert lingroup._pair_table.cache_info().misses == 1

    def test_the_cached_arrays_are_read_only(self, rng):
        grid = PeriodicGrid(1.0, 32)
        rows = np.array([f.coeffs for f in _stack_rows(grid, rng, True)])
        modes, _, keys, _ = lingroup._wave_stack(grid, rows, "bo_group")
        for array in lingroup._pair_table(modes.tobytes(), keys.tobytes()):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestDefaultSizeStack:
    """strichartz-scan's size, n = 128, 24 modes and 50 rows, against the per-field sum."""

    # a chunk of _MIN_WIDTH m holds 8 of these rows (24 pairs, 16 entries a row)
    SPLIT_ENTRIES = lingroup._MIN_WIDTH * 24 * (24 + lingroup._ROW_ENTRIES * 8)

    @pytest.mark.parametrize("lam", [1.0, 16.0])
    @pytest.mark.parametrize("entries", [None, SPLIT_ENTRIES])
    def test_chunks_and_stacks_match_the_per_field_sum(self, monkeypatch, rng, lam, entries):
        rows = random_fields(PeriodicGrid(lam, 128), rng, 50, n_modes=24, decay=0.8,
                             normalize="l2")
        calls = _count_chunks_and_stacks(monkeypatch)
        if entries is not None:
            monkeypatch.setattr(lingroup, "_EXACT_ENTRIES", entries)
        got = strichartz_norms(rows, 1.0)
        want = [strichartz_norm_reference(f, 1.0) for f in rows]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert calls["chunks"] > 1
        if entries is None:  # the rows ride along in one stack
            assert set(calls["stacks"]) == {50}
        else:  # each chunk is the floor's width, its rows cut into stacks of 8
            assert calls["chunks"] == -(-49 // lingroup._MIN_WIDTH)
            assert calls["stacks"][:7] == [8] * 6 + [2]
