"""Free propagators: group law, unitarity, residual order, mixed norm."""

import numpy as np
import pytest

from bosp import (
    PeriodicGrid,
    SpectralField,
    differentiate,
    hilbert,
    norm,
    propagate,
    random_field,
    strichartz_norm,
    synthesize,
)

from conftest import coeff_distance


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
        val = strichartz_norm(f, 1.0, n_t=64)
        assert val == pytest.approx((2 * np.pi) ** 0.25, rel=1e-12)

    def test_single_mode_has_unit_modulus(self):
        grid = PeriodicGrid(1.0, 32)
        f = field_from(grid, lambda x: np.exp(1j * x))
        val = strichartz_norm(f, 1.0, n_t=64)
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
            strichartz_norm(f, 1.0, n_t=8)

    def test_schrodinger_kind(self):
        grid = PeriodicGrid(1.0, 32)
        f = field_from(grid, lambda x: np.ones_like(x))
        val = strichartz_norm(f, 1.0, n_t=64, kind="schrodinger_group")
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
        from bosp.lingroup import _QUAD_PAD, _l4_sums_batch

        grid = PeriodicGrid(2.0, 32)
        rows = rng.standard_normal((9, grid.n)) + 1j * rng.standard_normal((9, grid.n))
        w = grid.circumference / (_QUAD_PAD * grid.n)
        sums = [w * np.sum(np.abs(synthesize(SpectralField(grid, row, is_real=real_rows),
                                             _QUAD_PAD)) ** 4) for row in rows]
        assert np.array_equal(_l4_sums_batch(rows, grid, real_rows), sums)
