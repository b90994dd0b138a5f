"""Operator calculus: transforms, multipliers, projections, norms."""

from types import SimpleNamespace
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosp import (
    PeriodicGrid,
    SpectralField,
    Trajectory,
    analyze,
    analyze_values_padded,
    antiderivative,
    differentiate,
    hilbert,
    mean_remove,
    multiply,
    norm,
    project,
    random_field,
    spectral,
    synthesize,
)

from bosp.spectral import (_alias_free_points, _complex_coeffs, _complex_values, _lp_norms,
                           _nyquist_split, _parseval_norms, _power, _power_steps,
                           _real_coeffs, _real_transforms, _real_values, _split, _symbol,
                           _values)

from conftest import coeff_distance, count_transforms, dense_lp, dft_direct, symmetry_defect


def field_from(grid, fn):
    return SpectralField.from_function(grid, fn)


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PeriodicGrid(1.0, 7)
        with pytest.raises(ValueError):
            PeriodicGrid(1.0, 6)
        with pytest.raises(ValueError):
            PeriodicGrid(-1.0, 64)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0])
    def test_grid_needs_finite_positive_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            PeriodicGrid(lam, 32)

    def test_mode_order_has_positive_nyquist(self, grid):
        m = grid.modes
        assert m[0] == 0 and m[grid.n // 2] == grid.n // 2 and m[-1] == -1

    @pytest.mark.parametrize("lam, n", [(1.0, 8), (2.5, 256)])
    def test_modes_and_freqs_are_one_read_only_array_per_grid(self, lam, n):
        g = PeriodicGrid(lam, n)
        m = np.arange(n)
        want = np.where(m <= n // 2, m, m - n)
        np.testing.assert_array_equal(g.modes, want)
        np.testing.assert_array_equal(g.freqs, want / lam)
        assert g.modes is g.modes and g.freqs is g.freqs
        for arr in (g.modes, g.freqs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        # the cached arrays leave equality and hashing to (lam, n)
        assert g == PeriodicGrid(lam, n) and hash(g) == hash(PeriodicGrid(lam, n))

    def test_spacing(self):
        g = PeriodicGrid(2.5, 32)
        assert g.dx == 2 * np.pi * 2.5 / 32
        assert np.allclose(np.diff(g.x), g.dx)

    def test_field_rejects_wrong_length(self, grid):
        with pytest.raises(ValueError):
            SpectralField(grid, np.zeros(10))

    def test_analyze_rejects_wrong_length(self, grid):
        with pytest.raises(ValueError):
            analyze(np.zeros(10), grid)

    def test_field_is_immutable(self, grid):
        with pytest.raises(AttributeError, match="SpectralField is immutable"):
            SpectralField.zero(grid).is_real = False

    def test_negation_keeps_grid_and_real_flag(self, random_fields):
        f = random_fields()
        for g in (f, 1j * f):
            neg = -g
            assert np.array_equal(neg.coeffs, -g.coeffs)
            assert neg.grid is g.grid and neg.is_real == g.is_real
        assert (-f).is_real and not (-(1j * f)).is_real

    def test_field_repr(self):
        # no keyword spelling: realness is read from the coefficients, not passed
        f = SpectralField.zero(PeriodicGrid(2.5, 16))
        assert repr(f) == "SpectralField(lam=2.5, n=16, real)"
        assert repr(1j * SpectralField.from_function(f.grid, np.cos)).endswith("complex)")

    def test_real_flag_detection(self, grid, random_fields):
        f = random_fields()
        assert f.is_real and symmetry_defect(f.coeffs) < 1e-13
        g = project(f, "plus")
        assert not g.is_real


class TestTransforms:
    def test_single_mode_identity(self, grid):
        f = field_from(grid, lambda x: np.exp(1j * x))
        expected = np.zeros(grid.n, dtype=complex)
        expected[1] = 1.0
        assert np.max(np.abs(f.coeffs - expected)) < 1e-14

    def test_constant(self, grid):
        f = analyze(np.full(grid.n, 3.0), grid)
        assert abs(f.coeffs[0] - 3.0) < 1e-15
        assert np.max(np.abs(f.coeffs[1:])) < 1e-15

    def test_roundtrip_against_direct_dft(self, rng):
        grid = PeriodicGrid(1.0, 64)
        samples = rng.standard_normal(64)
        f = analyze(samples, grid)
        assert np.max(np.abs(f.coeffs - dft_direct(samples, 1.0))) < 1e-12
        back = synthesize(f)
        assert np.max(np.abs(back - samples)) < 1e-12 * np.max(np.abs(samples))

    def test_normalization_carries_lambda(self):
        grid = PeriodicGrid(3.0, 64)
        f = field_from(grid, lambda x: np.cos(x / 3.0))  # one circle period
        assert abs(f.coeffs[1] - 0.5) < 1e-14

    def test_oversampled_synthesis_interpolates(self, grid):
        f = field_from(grid, np.cos)
        vals = synthesize(f, oversample=4)
        fine = PeriodicGrid(grid.lam, 4 * grid.n)
        assert np.max(np.abs(vals - np.cos(fine.x))) < 1e-13

    def test_padded_analysis_rejects_bad_length(self, grid):
        from bosp import analyze_values_padded

        with pytest.raises(ValueError, match="at least grid.n"):
            analyze_values_padded(np.zeros(grid.n - 3), grid)

    @pytest.mark.parametrize("shape", [(2, 8), (16, 1), (1, 16), (2, 16), ()])
    def test_padded_analysis_refuses_all_but_one_row(self, shape):
        # a 2-D array of grid.n values or more once met numpy's broadcast error
        from bosp import analyze_values_padded

        with pytest.raises(ValueError, match=r"1-D array of at least grid.n = 16 points, "
                                             rf"got shape {re.escape(str(shape))}"):
            analyze_values_padded(np.zeros(shape), PeriodicGrid(1.0, 16))

    @pytest.mark.parametrize("oversample", [0, -1, 1.5])
    @pytest.mark.parametrize("real", [True, False])
    def test_oversample_below_one_or_fractional_rejected(self, monkeypatch, grid, oversample,
                                                           real):
        f = field_from(grid, np.cos if real else lambda x: np.exp(1j * x))
        calls = count_transforms(monkeypatch)
        with pytest.raises(ValueError, match="oversample must be an integer >= 1"):
            synthesize(f, oversample)
        assert calls == []

    @pytest.mark.parametrize("transforms", ["_GUFUNC_FFTS", "_NUMPY_FFTS"])
    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
    def test_samples_of_any_dtype_analyze_as_float64(self, monkeypatch, grid, rng, transforms,
                                                     dtype):
        monkeypatch.setattr(spectral, "_FFTS", getattr(spectral, transforms))
        raw = 4.0 * rng.standard_normal(grid.n)
        samples = raw > 0 if dtype is np.bool_ else raw.astype(dtype)
        assert np.array_equal(analyze(samples, grid).coeffs,
                              analyze(samples.astype(np.float64), grid).coeffs)


class TestTransformSets:
    def test_gufuncs_are_picked_when_numpy_has_all_five(self):
        from numpy.fft import _pocketfft_umath

        assert spectral._FFTS is spectral._GUFUNC_FFTS is not None
        assert isinstance(spectral._gufunc_transforms(_pocketfft_umath), spectral._Transforms)
        four = SimpleNamespace(**{name: getattr(_pocketfft_umath, name)
                                  for name in spectral._GUFUNC_NAMES[1:]})
        assert spectral._gufunc_transforms(four) is None
        assert spectral._gufunc_transforms(None) is None

    @pytest.mark.parametrize("n", [8, 16, 256, 2048])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
    def test_gufunc_kernels_equal_numpy_fft_bit_for_bit(self, monkeypatch, n, degree, lead):
        """degree 1 is the unpadded nbig = n; n = 8 at degree 3 an odd nbig = 15."""
        rng = np.random.default_rng([n, degree, len(lead)])
        nbig = _alias_free_points(n, degree)

        def cplx(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        half, values = cplx(lead + (n // 2 + 1,)), rng.standard_normal(lead + (nbig,))
        cases = [  # kernel, input, size, the call into given arrays (or None: it takes none)
            (_real_values, half, nbig,
             lambda: _real_transforms(nbig)[0](half, np.empty(lead + (nbig,)))),
            (_real_coeffs, values, n,
             lambda: _real_transforms(nbig)[1](
                 values, np.empty(lead + (nbig // 2 + 1,), dtype=complex))),
            (_complex_values, cplx(lead + (n,)), nbig, None),
            (_complex_coeffs, cplx(lead + (nbig,)), n, None),
            (_complex_coeffs, values, n, None),
        ]
        for kernel, data, size, into in cases:
            calls = [lambda: kernel(data, size)] + ([into] if into is not None else [])
            for call in calls:  # each against itself: the bare pair neither splits nor folds
                got = []
                for transforms in (spectral._GUFUNC_FFTS, spectral._NUMPY_FFTS):
                    monkeypatch.setattr(spectral, "_FFTS", transforms)
                    got.append(call())
                assert np.array_equal(got[1], got[0]), kernel.__name__


class TestHilbert:
    def test_cos_to_sin(self, grid):
        out = hilbert(field_from(grid, np.cos))
        assert coeff_distance(out, field_from(grid, np.sin)) < 1e-14

    def test_constant_to_zero(self, grid):
        out = hilbert(analyze(np.full(grid.n, 4.2), grid))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_squares_to_minus_identity_off_mean(self, grid):
        f = field_from(grid, lambda x: 2.0 + np.cos(x))
        out = hilbert(hilbert(f))
        assert coeff_distance(out, -1.0 * field_from(grid, np.cos)) < 1e-14

    def test_real_to_real(self, random_fields):
        f = random_fields()
        assert hilbert(f).is_real


class TestProjections:
    def test_plus_of_cos(self, grid):
        out = project(field_from(grid, np.cos), "plus")
        expected = np.zeros(grid.n, dtype=complex)
        expected[1] = 0.5
        assert np.max(np.abs(out.coeffs - expected)) < 1e-14

    def test_mean_of_cos_squared(self, grid):
        u = field_from(grid, np.cos)
        u2 = multiply(u, u)
        out = project(u2, "zero")
        assert abs(out.coeffs[0] - 0.5) < 1e-14

    def test_three_way_partition_is_exact(self, grid):
        f = field_from(grid, lambda x: np.exp(-2j * x) + 5.0 + np.exp(3j * x))
        total = project(f, "plus") + project(f, "minus") + project(f, "zero")
        assert np.array_equal(total.coeffs, f.coeffs)

    def test_partition_random(self, random_fields):
        f = random_fields()
        total = project(f, "plus") + project(f, "minus") + project(f, "zero")
        assert np.array_equal(total.coeffs, f.coeffs)

    def test_band_partition_with_mirror(self, random_fields):
        f = random_fields()
        cut = 5.0
        q = f.grid.freqs
        mirror = np.where(q < -cut, f.coeffs, 0.0)
        total = (project(f, "leq", cut).coeffs + project(f, "gt", cut).coeffs
                 + mirror + project(f, "zero").coeffs)
        assert np.array_equal(total, f.coeffs)

    def test_cutoffs_in_physical_units(self):
        grid = PeriodicGrid(2.0, 64)
        f = SpectralField.from_function(grid, lambda x: np.cos(1.5 * x))  # mode 3
        assert np.max(np.abs(project(f, "leq", 1.0).coeffs)) < 1e-15
        kept = project(f, "leq", 1.5)
        assert abs(kept.coeffs[3] - 0.5) < 1e-14

    def test_bad_selector(self, random_fields):
        with pytest.raises(ValueError):
            project(random_fields(), "high")
        with pytest.raises(ValueError):
            project(random_fields(), "leq")


    @pytest.mark.parametrize("kind, cutoff", [("gt", None), ("gt", -1), ("leq", -1)])
    def test_band_needs_nonnegative_cutoff(self, random_fields, kind, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite and nonnegative"):
            project(random_fields(), kind, cutoff)


class TestDerivatives:
    def test_half_derivative_unit_mode(self, grid):
        f = field_from(grid, lambda x: np.exp(1j * x))
        out = differentiate(f, "abs_d", 0.5)
        assert coeff_distance(out, f) < 1e-14

    def test_half_derivative_second_mode(self, grid):
        f = field_from(grid, lambda x: np.exp(2j * x))
        out = differentiate(f, "abs_d", 0.5)
        assert np.abs(out.coeffs[2] - np.sqrt(2)) < 1e-14

    def test_first_derivative(self, grid):
        out = differentiate(field_from(grid, np.sin), "d_dx", 1)
        assert coeff_distance(out, field_from(grid, np.cos)) < 1e-13

    def test_bessel_weight(self, grid):
        f = field_from(grid, lambda x: np.exp(1j * x))
        out = differentiate(f, "bessel", 1.0)
        assert np.abs(out.coeffs[1] - np.sqrt(2)) < 1e-14

    def test_negative_exponent_rejected(self, random_fields):
        f = random_fields()
        for kind in ("abs_d", "bessel"):
            with pytest.raises(ValueError):
                differentiate(f, kind, -0.5)

    @pytest.mark.parametrize("order", [0.5, -1])
    def test_d_dx_needs_nonnegative_integer_order(self, random_fields, order):
        with pytest.raises(ValueError, match="order must be a whole number >= 0"):
            differentiate(random_fields(), "d_dx", order)

    def test_unknown_kind_rejected(self, random_fields):
        with pytest.raises(ValueError, match="kind must be one of d_dx, abs_d, bessel, got 'curl'"):
            differentiate(random_fields(), "curl")

    def test_real_outputs(self, random_fields):
        f = random_fields()
        for kind, order in (("d_dx", 1), ("d_dx", 2), ("abs_d", 0.5), ("bessel", 1.5)):
            out = differentiate(f, kind, order)
            assert out.is_real and symmetry_defect(out.coeffs) < 1e-13


def _nyquist_zeroed(mult, n):
    mult = mult.copy()
    mult[n // 2] = 0.0
    return mult


# each multiplier as its reader once built it from grid.freqs
SYMBOL_REFERENCES = {
    ("abs_d", 0.5): lambda q, n: np.abs(q) ** 0.5,
    ("abs_d", 2.0): lambda q, n: np.abs(q) ** (2 * 1.0),              # norm "hs_dot", s = 1
    ("bessel", 2.0): lambda q, n: (1.0 + q * q) ** 1.0,               # H^1 weight
    ("bessel", 1.4): lambda q, n: (1.0 + q * q) ** 0.7,               # H^0.7 weight
    ("bessel", 3.0): lambda q, n: (1.0 + q * q) ** (3.0 / 2.0),       # differentiate
    ("hilbert_dx", 1): lambda q, n: np.append(np.abs(q[: n // 2]), 0.0),   # half spectrum
    ("bo_group", 1): lambda q, n: _nyquist_zeroed(-1j * q * np.abs(q), n),
    ("schrodinger_group", 1): lambda q, n: -1j * q * q,
}


class TestSymbolTable:
    """Every Fourier multiplier is one cached, read-only ``_symbol`` array."""

    @pytest.mark.parametrize("kind, order", sorted(SYMBOL_REFERENCES, key=str))
    @pytest.mark.parametrize("lam, n", [(1.0, 16), (2.5, 64)])
    def test_kind_keeps_the_bits_of_its_old_expression(self, kind, order, lam, n):
        grid = PeriodicGrid(lam, n)
        mult = _symbol(grid, kind, order)
        want = SYMBOL_REFERENCES[kind, order](grid.freqs, n)
        assert np.array_equal(mult[: want.size], want) and mult.dtype == want.dtype
        assert not mult.flags.writeable and _symbol(grid, kind, order) is mult

    def test_unknown_kind_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown symbol 'bogus'"):
            _symbol(grid, "bogus")

    @pytest.mark.parametrize("s", [0.5, 0.7, 1, 1.0, 1.5, 2.0])
    def test_sobolev_norms_keep_their_bits(self, rng, s):
        grid = PeriodicGrid(1.5, 32)
        rows = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        q, sq = grid.freqs, np.abs(rows) ** 2
        assert np.array_equal(_parseval_norms(rows, grid, s),
                              np.sqrt(np.sum((1.0 + q * q) ** s * sq, axis=-1)))
        f = SpectralField(grid, rows[0])
        assert norm(f, "hs_dot", s=s) == float(np.sqrt(np.sum(np.abs(q) ** (2 * s) * sq[0])))
        assert np.array_equal(differentiate(f, "abs_d", s).coeffs, np.abs(q) ** s * rows[0])
        assert np.array_equal(differentiate(f, "bessel", s).coeffs,
                              (1.0 + q * q) ** (s / 2.0) * rows[0])


class TestAntiderivative:
    def test_cos_integrates_to_sin(self, grid):
        out = antiderivative(field_from(grid, np.cos))
        assert coeff_distance(out, field_from(grid, np.sin)) < 1e-14

    def test_mean_obstruction(self, grid):
        with pytest.raises(ValueError, match="C_0"):
            antiderivative(analyze(np.ones(grid.n), grid))

    def test_left_inverse_of_derivative(self, random_fields):
        f = random_fields()
        g = differentiate(antiderivative(f), "d_dx", 1)
        assert coeff_distance(g, f) < 1e-12

    def test_zero_mean_output(self, random_fields):
        assert antiderivative(random_fields()).coeffs[0] == 0.0


class TestMeanRemove:
    def test_shift_split(self, grid):
        f = field_from(grid, lambda x: 2.0 + np.cos(x))
        mean, rest = mean_remove(f)
        assert mean == pytest.approx(2.0, abs=1e-14)
        assert coeff_distance(rest, field_from(grid, np.cos)) < 1e-14

    def test_zero_field(self, grid):
        mean, rest = mean_remove(SpectralField.zero(grid))
        assert mean == 0.0 and np.max(np.abs(rest.coeffs)) == 0.0

    def test_double_angle(self, grid):
        u = field_from(grid, np.cos)
        _, m = mean_remove(multiply(u, u))
        expected = field_from(grid, lambda x: 0.5 * np.cos(2 * x))
        assert coeff_distance(m, expected) < 1e-14

    def test_exact_reassembly(self, random_fields):
        f = random_fields(mean=0.7)
        mean, rest = mean_remove(f)
        total = rest.coeffs.copy()
        total[0] += mean
        assert np.array_equal(total, f.coeffs)


class TestNorms:
    def test_hs_single_mode(self, grid):
        f = field_from(grid, lambda x: np.exp(1j * x))
        for s in (0.0, 0.5, 1.0, 2.0):
            assert norm(f, "hs", s=s) == pytest.approx(2 ** (s / 2), rel=1e-14)

    def test_l2_of_cos(self, grid):
        assert norm(field_from(grid, np.cos), "lp", p=2) == pytest.approx(
            np.sqrt(np.pi), rel=1e-14)

    def test_l4_of_cos_against_dense_oracle(self, grid):
        f = field_from(grid, np.cos)
        lib = norm(f, "lp", p=4)
        assert lib == pytest.approx((3 * np.pi / 4) ** 0.25, rel=1e-13)
        assert lib == pytest.approx(dense_lp(f, 4), rel=1e-12)

    def test_linf(self, grid):
        f = field_from(grid, lambda x: 2.0 + np.cos(x))
        assert norm(f, "linf") == pytest.approx(3.0, rel=1e-12)

    def test_hs_dot_kills_mean(self, grid):
        f = field_from(grid, lambda x: 5.0 + np.cos(x))
        assert norm(f, "hs_dot", s=1.0) == pytest.approx(np.sqrt(0.5), rel=1e-13)

    def test_unsupported_p(self, random_fields):
        with pytest.raises(ValueError):
            norm(random_fields(), "lp", p=3)

    def test_missing_smoothness_parameter(self, random_fields):
        f = random_fields()
        with pytest.raises(ValueError):
            norm(f, "hs")
        with pytest.raises(ValueError):
            norm(f, "hs_dot")
        with pytest.raises(ValueError):
            norm(f, "energy")

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("real", [True, False])
    def test_lp_rows_equal_norm_of_each_row(self, grid, rng, p, real):
        # 130 rows span 2 stacks of 135 points at p = 4 and 3 of 256 at p = 1
        if real:
            rows = np.array([random_field(grid, rng, n_modes=31).coeffs for _ in range(130)])
        else:
            rows = rng.standard_normal((130, grid.n)) + 1j * rng.standard_normal((130, grid.n))
        want = [norm(SpectralField(grid, row), "lp", p=p) for row in rows]
        assert np.array_equal(_lp_norms(rows, grid, p), want)

    @pytest.mark.parametrize("rows_kind", ["real", "real_nyquist", "gt_projection",
                                           "complex_nyquist"])
    def test_sup_rows_equal_the_per_field_synthesis_max(self, rng, rows_kind):
        # n = 512: 8 rows of 2048 padded points per stack, so 19 rows span 3 stacks
        grid = PeriodicGrid(5.0, 512)
        real = rows_kind.startswith("real")
        if real:
            rows = np.array([random_field(grid, rng, n_modes=60, decay=0.95).coeffs
                             for _ in range(19)])
        else:
            rows = (rng.standard_normal((19, grid.n))
                    + 1j * rng.standard_normal((19, grid.n))) * 0.99 ** np.abs(grid.modes)
        if rows_kind == "real_nyquist":
            rows[:, grid.n // 2] = rng.standard_normal(19)
        elif rows_kind == "gt_projection":  # the one-sided high pass of bernstein
            rows = np.where(grid.freqs > 1.0, rows, 0.0)
        assert rows[:, grid.n // 2].any() == (rows_kind != "real")
        want = [float(np.max(np.abs(synthesize(SpectralField(grid, row), 4))))
                for row in rows]
        got = _lp_norms(rows, grid, np.inf)
        assert got.tolist() == want
        assert [norm(SpectralField(grid, row), "linf") for row in rows] == want

    @pytest.mark.parametrize("kind, p, s", [("lp", 2, None), ("lp", 4, None), ("hs", None, 1.0),
                                            ("hs_dot", None, 1.0)])
    def test_large_finite_norm_evaluates_and_nan_field_keeps_its_nan(self, kind, p, s):
        # only a norm of finite coefficients that overflows is refused (test_input_rules)
        grid = PeriodicGrid(1.0, 16)
        c = np.zeros(grid.n, dtype=complex)
        c[1] = c[-1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(SpectralField(grid, 1e-130 * c), kind, p=p, s=s) > 1e70
            # a NaN next to coefficients whose norm overflows still gives NaN
            c[3] = np.nan
            assert np.isnan(norm(SpectralField(grid, c), kind, p=p, s=s))

    def test_parseval(self, rng):
        # coefficient-space L^2 equals dense quadrature, lambda factor included
        for lam in (1.0, 3.5):
            grid = PeriodicGrid(lam, 64)
            f = random_field(grid, rng, n_modes=20)
            assert norm(f, "lp", p=2) == pytest.approx(dense_lp(f, 2), rel=1e-12)


class TestOperatorProperties:
    def test_multiplier_commutation(self, rng):
        grid = PeriodicGrid(2.0, 64)
        for _ in range(100):
            f = random_field(grid, rng, n_modes=24)
            a = hilbert(differentiate(f, "abs_d", 0.5))
            b = differentiate(hilbert(f), "abs_d", 0.5)
            scale = max(np.max(np.abs(a.coeffs)), 1e-300)
            assert coeff_distance(a, b) / scale < 1e-13

    def test_hilbert_antisymmetry(self, rng):
        grid = PeriodicGrid(1.0, 64)
        for _ in range(25):
            f = random_field(grid, rng, n_modes=20)
            g = random_field(grid, rng, n_modes=20)
            lhs = grid.circumference * multiply(f, hilbert(g)).mean
            rhs = -grid.circumference * multiply(hilbert(f), g).mean
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)

    def test_symmetry_preserved_across_operations(self, random_fields):
        from bosp import antiderivative as anti, propagate

        f = random_fields(mean=0.3)
        zero_mean = mean_remove(f)[1]
        outputs = [
            hilbert(f),
            differentiate(f, "d_dx", 1),
            differentiate(f, "abs_d", 1.5),
            differentiate(f, "bessel", 1.0),
            project(f, "leq", 8.0),
            zero_mean,
            anti(zero_mean),
            propagate(f, 0.7),
            multiply(f, f),
        ]
        for out in outputs:
            assert out.is_real
            assert symmetry_defect(out.coeffs) < 1e-13

    def test_product_exactness(self, grid):
        u = field_from(grid, np.cos)
        prod = multiply(u, u)
        expected = field_from(grid, lambda x: 0.5 + 0.5 * np.cos(2 * x))
        assert coeff_distance(prod, expected) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call, message", [
    (lambda f, x: differentiate(f, "d_dx", x), "order must be a whole number >= 0"),
    (lambda f, x: differentiate(f, "abs_d", x), "order must be finite and nonnegative"),
    (lambda f, x: differentiate(f, "bessel", x), "order must be finite and nonnegative"),
    (lambda f, x: project(f, "leq", x), "cutoff must be finite and nonnegative"),
    (lambda f, x: project(f, "gt", x), "cutoff must be finite and nonnegative"),
    (lambda f, x: norm(f, "hs", s=x), "s must be finite"),
    (lambda f, x: norm(f, "hs_dot", s=x), "s must be finite"),
], ids=["d_dx", "abs_d", "bessel", "leq", "gt", "hs", "hs_dot"])
def test_non_finite_operator_parameter_rejected(random_fields, call, message, bad):
    # the checks compared with <, which NaN passes: inf overflowed int() in
    # d_dx, and the others returned non-finite coefficients, a zero field or nan
    with pytest.raises(ValueError, match=message):
        call(random_fields(), bad)


class TestTrajectoryType:
    def test_needs_two_snapshots(self, grid):
        with pytest.raises(ValueError):
            Trajectory(grid, [0.0], np.zeros((1, grid.n // 2 + 1)), "linear")

    def test_uniform_spacing_enforced(self, grid):
        with pytest.raises(ValueError):
            Trajectory(grid, [0.0, 0.1, 0.30001], np.zeros((3, grid.n // 2 + 1)), "linear")

    @pytest.mark.parametrize("shape", [(2, 32), (2, 34), (66,), (2, 1, 33)])
    def test_shape_mismatch(self, grid, shape):
        # grid.n = 64: the stack must be (S, 33)
        with pytest.raises(ValueError, match="half-spectrum stack"):
            Trajectory(grid, [0.0, 0.1], np.zeros(shape), "linear")

    def test_unknown_tag(self, grid):
        with pytest.raises(ValueError):
            Trajectory(grid, [0.0, 0.1], np.zeros((2, grid.n // 2 + 1)), "kdv")

    def test_times_must_match_the_snapshots(self, grid):
        with pytest.raises(ValueError, match="times and snapshots must have equal length"):
            Trajectory(grid, [0.0, 0.1, 0.2], np.zeros((2, grid.n // 2 + 1)), "linear")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        # NaN and inf steps passed the uniformity test; sample_dt read nan or inf
        with pytest.raises(ValueError, match="sample times must be finite"):
            Trajectory(PeriodicGrid(1.0, 16), [0, bad], np.zeros((2, 9)), "linear")

    def test_trajectory_repr(self):
        traj = Trajectory(PeriodicGrid(2.0, 16), [0.0, 0.5], np.zeros((2, 9)), "gbo", 3)
        assert repr(traj) == "Trajectory(gbo, k=3, lam=2, n=16, samples=2, T=0.5)"

    @pytest.mark.parametrize("slot", [0, -1])
    def test_non_real_mean_or_nyquist_slot_rejected(self, slot):
        # such a stack saved, but the loader refused the file and traj[0].mean read 0.0
        grid = PeriodicGrid(1.0, 16)
        half = np.zeros((2, grid.n // 2 + 1), dtype=complex)
        half[:, slot] = 0.1j
        with pytest.raises(ValueError, match="slots 0 and n/2"):
            Trajectory(grid, [0, 1], half, "linear")
        half[1, slot] = 0.0
        with pytest.raises(ValueError, match="slots 0 and n/2"):
            Trajectory(grid, [0, 1], half, "linear")
        half[0, slot] = 0.5
        Trajectory(grid, [0, 1], half, "linear")

    def test_rows_expand_to_real_fields(self, grid, rng):
        half = rng.standard_normal((3, grid.n // 2 + 1)) + 1j * rng.standard_normal(
            (3, grid.n // 2 + 1))
        half[:, 0] = half[:, 0].real
        half[:, -1] = half[:, -1].real
        traj = Trajectory(grid, [0.0, 0.5, 1.0], half, "gbo")
        half[:] = 0.0  # the trajectory keeps its own copy
        assert not traj.half_coeffs.flags.writeable
        fields = list(traj)
        assert len(fields) == len(traj) == 3
        for i, f in enumerate(fields):
            assert f.is_real and f.grid == grid and symmetry_defect(f.coeffs) == 0.0
            assert np.array_equal(f.coeffs, traj[i].coeffs)
            assert np.array_equal(f.coeffs[: grid.n // 2 + 1], traj.half_coeffs[i])
        assert np.array_equal(traj[-1].coeffs, fields[2].coeffs)


PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
PADS = st.sampled_from([1, 2, 4])


@st.composite
def fields(draw, real=None):
    """Full-band random field with a nonzero Nyquist coefficient."""
    grid = PeriodicGrid(draw(st.sampled_from([0.5, 1.0, 3.0])),
                        draw(st.sampled_from([8, 16, 32, 64])))
    real = draw(st.booleans()) if real is None else real
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = grid.n
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if real:
        c[0], c[n // 2] = c[0].real, c[n // 2].real
        c[n // 2 + 1:] = np.conj(c[n // 2 - 1: 0: -1])
    return SpectralField(grid, c)


def zero_mean_zero_nyquist(f):
    c = f.coeffs.copy()
    c[0] = c[f.grid.n // 2] = 0.0
    return SpectralField(f.grid, c)


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestPaddedTransformProperties:
    @pytest.mark.parametrize("pad", [1, 4])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_real_kernels_write_into_out_as_they_allocate(self, rng, pad, lead):
        """The bare pair takes split input and gives unfolded output; the
        allocating kernels add the split and the fold, bit for bit."""
        n, nyq = 32, 16
        nbig = pad * n
        half = rng.standard_normal(lead + (n // 2 + 1,)) + 1j * rng.standard_normal(
            lead + (n // 2 + 1,))
        half[..., nyq] = half[..., nyq].real
        split = half * _nyquist_split(n) if nbig > n else half
        before = split.copy()
        out = np.empty(lead + (nbig,))
        values, coeffs = _real_transforms(nbig)
        vals = values(split, out)
        assert vals is out and np.array_equal(vals, _real_values(half, nbig))
        assert np.array_equal(split, before)
        spec = np.empty(lead + (nbig // 2 + 1,), dtype=complex)
        unfolded = coeffs(vals * vals, spec)
        assert unfolded is spec
        folded = _real_coeffs(vals * vals, n)
        assert np.array_equal(unfolded[..., :nyq], folded[..., :nyq])
        assert np.array_equal(2.0 * unfolded[..., nyq].real if nbig > n else unfolded[..., nyq],
                              folded[..., nyq])

    @pytest.mark.parametrize("pad", [1, 4])
    def test_split_halves_the_slot_n_over_2_alone(self, rng, pad):
        """The one rule of padded real synthesis: a new array with the slot
        n/2 halved when nbig > n, else the input itself."""
        n = 32
        half = rng.standard_normal((3, n // 2 + 1)) + 1j * rng.standard_normal((3, n // 2 + 1))
        split = _split(half, pad * n)
        if pad == 1:
            assert split is half
        else:
            assert not np.shares_memory(split, half)
            assert np.array_equal(split[:, :-1], half[:, :-1])
            assert np.array_equal(split[:, -1], 0.5 * half[:, -1])

    @PROPERTY
    @given(f=fields(), pad=PADS)
    def test_padded_round_trip(self, f, pad):
        back = analyze_values_padded(synthesize(f, pad), f.grid)
        assert back.is_real == f.is_real
        assert max_rel(back.coeffs, f.coeffs) <= 1e-14

    @PROPERTY
    @given(f=fields(), extra=st.integers(1, 7))
    def test_round_trip_on_any_longer_grid(self, f, extra):
        """nbig need not be a multiple of n: the alias-free sizes are not."""
        back = analyze_values_padded(_values(f, f.grid.n + extra), f.grid)
        assert back.is_real == f.is_real
        assert max_rel(back.coeffs, f.coeffs) <= 1e-14

    @PROPERTY
    @given(f=fields(real=True), pad=PADS)
    def test_real_path_is_exactly_symmetric(self, f, pad):
        vals = synthesize(f, pad)
        for values in (vals, vals * vals):
            assert symmetry_defect(analyze_values_padded(values, f.grid).coeffs) == 0.0

    @PROPERTY
    @given(f=fields(real=True), pad=PADS)
    def test_complex_path_agrees_with_real_path(self, f, pad):
        a = synthesize(f, pad)
        b = a * a  # a product: modes beyond n/2 reach the fold
        whole = analyze_values_padded(a + 1j * b, f.grid).coeffs
        parts = (analyze_values_padded(a, f.grid).coeffs
                 + 1j * analyze_values_padded(b, f.grid).coeffs)
        assert max_rel(whole, parts) <= 1e-14

    @PROPERTY
    @given(n=st.sampled_from([8, 16, 64]), pad=PADS, rows=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_kernels_on_a_stack_equal_row_by_row(self, n, pad, rows, seed):
        rng = np.random.default_rng(seed)
        nbig = pad * n
        coeffs = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        values = rng.standard_normal((rows, nbig))
        cases = [(_real_values, coeffs[:, : n // 2 + 1], nbig),
                 (_complex_values, coeffs, nbig),
                 (_real_coeffs, values, n),
                 (_complex_coeffs, values + 1j * values[::-1], n)]
        for kernel, stack, size in cases:
            expected = np.array([kernel(row, size) for row in stack])
            assert np.array_equal(kernel(stack, size), expected), kernel.__name__

    @PROPERTY
    @given(f=fields())
    def test_hilbert_squares_to_minus_identity(self, f):
        g = zero_mean_zero_nyquist(f)
        assert np.array_equal(hilbert(hilbert(g)).coeffs, -g.coeffs)

    @PROPERTY
    @given(f=fields(), cut=st.floats(0.0, 70.0))
    def test_band_partition_with_mirror_reassembles(self, f, cut):
        mirror = np.where(f.grid.freqs < -cut, f.coeffs, 0.0)
        total = (project(f, "leq", cut).coeffs + project(f, "gt", cut).coeffs
                 + mirror + project(f, "zero").coeffs)
        assert np.array_equal(total, f.coeffs)

    @PROPERTY
    @given(f=fields())
    def test_antiderivative_left_inverse_of_d_dx(self, f):
        g = zero_mean_zero_nyquist(f)
        back = antiderivative(differentiate(g, "d_dx", 1))
        assert max_rel(back.coeffs, g.coeffs) <= 1e-14


class TestPower:
    EPS = np.finfo(float).eps

    @staticmethod
    def signed_values(seed=0):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3, 512)
        return np.concatenate((rng.standard_normal(512) * scale,
                               [0.0, -0.0, np.inf, -np.inf, np.nan]))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_low_powers_equal_numpy_exactly(self, p):
        v = self.signed_values()
        assert np.array_equal(_power(v, p), v ** p, equal_nan=True)

    @pytest.mark.parametrize("p", range(3, 9))
    def test_higher_powers_agree_with_pow_to_round_off(self, p):
        v = self.signed_values()
        got, ref = _power(v, p), v ** p
        finite = np.isfinite(ref)
        assert finite.sum() >= 500
        assert np.all(np.abs(got[finite] - ref[finite]) <= (p - 1) * self.EPS * np.abs(ref[finite]))
        assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
        assert np.isnan(got[-1])
        assert np.array_equal(np.signbit(got[:-1]), np.signbit(ref[:-1]))

    @pytest.mark.parametrize("p", range(0, 9))
    def test_input_untouched_and_result_a_new_array(self, p):
        v = self.signed_values()
        before = v.copy()
        out = _power(v, p)
        assert not np.shares_memory(out, v)
        out[...] = 7.0
        assert np.array_equal(v, before, equal_nan=True)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_work_pair_result_equals_new_array(self, p):
        """The steps run into the values and a pair, as the solver's flux runs them."""
        v = self.signed_values()
        before = v.copy()
        slots = [v, np.full_like(v, 3.0), np.full_like(v, 5.0)]
        steps, last = _power_steps(p)
        for a, b, dest in steps:
            np.multiply(slots[a], slots[b], out=slots[dest])
        assert np.array_equal(slots[last], _power(v, p), equal_nan=True)
        assert np.array_equal(v, before, equal_nan=True)

    def test_stack_equals_row_by_row(self):
        stack = self.signed_values()[:500].reshape(5, 100)
        expected = np.array([_power(row, 5) for row in stack])
        assert np.array_equal(_power(stack, 5), expected)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="p >= 0"):
            _power(np.ones(4), -1)
