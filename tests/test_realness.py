"""Realness is read from the coefficients: one exact rule decides it.

A field is real when its coefficients are exactly conjugate symmetric
(``spectral._conjugate_symmetric``); no flag is stored or passed on.  The
real-preserving operators keep that symmetry bit for bit, the others break
it, a checkpoint keeps it, and the stacked kernels test it once per stack.
"""

import numpy as np
import pytest

from bosp import (
    PeriodicGrid,
    SpectralField,
    antiderivative,
    build_gauge,
    differentiate,
    dilate,
    hilbert,
    load_checkpoint,
    multiply,
    project,
    propagate,
    random_field,
    reconstruct_u,
    rhs_gbo_terms,
    save_checkpoint,
    solve,
    SolverConfig,
    strichartz_norm,
    strichartz_norms,
    synthesize,
)
from bosp.spectral import _conjugate_symmetric

from conftest import symmetry_defect

GRIDS = [PeriodicGrid(lam, n) for lam in (1.0, 3.7) for n in (16, 64, 256)]


def _full_band(grid, seed, nyquist=0.3):
    """A real zero-mean field on every mode, the Nyquist slot included."""
    c = random_field(grid, np.random.default_rng(seed), decay=0.9).coeffs.copy()
    c[grid.n // 2] = nyquist
    return SpectralField(grid, c)


REAL_PRESERVING = {
    "bo group, t = 0.37": lambda f, g: propagate(f, 0.37),
    "bo group, t = 5.1": lambda f, g: propagate(f, 5.1),
    "d_dx": lambda f, g: differentiate(f, "d_dx", 1),
    "d_dx^3": lambda f, g: differentiate(f, "d_dx", 3),
    "abs_d": lambda f, g: differentiate(f, "abs_d", 1.5),
    "bessel": lambda f, g: differentiate(f, "bessel", 1.0),
    "hilbert": lambda f, g: hilbert(f),
    "antiderivative": lambda f, g: antiderivative(f),
    "multiply": lambda f, g: multiply(f, g),
    "real scalar": lambda f, g: -2.7 * f,
    "project leq": lambda f, g: project(f, "leq", cutoff=3.0 / f.grid.lam),
    "project zero": lambda f, g: project(f, "zero"),
    "dilate": lambda f, g: dilate(f, 2.0),
}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"lam={g.lam}-n={g.n}")
@pytest.mark.parametrize("name", REAL_PRESERVING)
def test_real_preserving_operators_keep_exact_symmetry(grid, name):
    f, g = _full_band(grid, 1), _full_band(grid, 2, nyquist=-0.1)
    assert f.is_real and g.is_real
    out = REAL_PRESERVING[name](f, g)
    assert out.is_real
    assert symmetry_defect(out.coeffs) == 0.0
    assert np.isrealobj(synthesize(out)) and isinstance(out.mean, float)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"lam={g.lam}-n={g.n}")
@pytest.mark.parametrize("make", [
    lambda f: project(f, "plus"),
    lambda f: project(f, "minus"),
    lambda f: project(f, "gt", cutoff=1.0),
    lambda f: propagate(f, 0.37, "schrodinger_group"),
    lambda f: (0.5 + 0.25j) * f,
    lambda f: 1j * f,
], ids=["plus", "minus", "gt", "schrodinger", "complex scalar", "i"])
def test_complex_results_are_complex_fields(grid, make):
    out = make(_full_band(grid, 3))
    assert not out.is_real
    assert np.iscomplexobj(synthesize(out)) and isinstance(out.mean, complex)


def test_round_off_symmetry_is_a_complex_field():
    # np.fft.fft of real samples and the reconstructed u are symmetric only
    # to round-off: a complex field, whatever the defect
    grid = PeriodicGrid(1.0, 64)
    f = _full_band(grid, 4)
    fft = SpectralField(grid, np.fft.fft(synthesize(f)) / grid.n)
    assert 0.0 < symmetry_defect(fft.coeffs) < 1e-13 and not fft.is_real
    v = random_field(grid, np.random.default_rng(5), n_modes=8, amplitude=0.3)
    rec = reconstruct_u(build_gauge(v, "bo"), v)
    assert not rec.is_real


def test_exact_symmetry_is_a_real_field_whatever_made_it():
    grid = PeriodicGrid(2.0, 32)
    f = _full_band(grid, 6)
    whole = project(f, "plus") + project(f, "minus") + project(f, "zero")
    assert whole.is_real and np.array_equal(whole.coeffs, f.coeffs)
    assert isinstance(whole.mean, float) and np.isrealobj(synthesize(whole))
    # the d term of the gbo gauge equation vanishes at k = 1: the zero field
    v = random_field(grid, np.random.default_rng(7), n_modes=6, amplitude=0.2)
    d = rhs_gbo_terms(v, 1).d
    assert not d.coeffs.any() and d.is_real
    gauge = build_gauge(v, "gbo")
    assert gauge.F.is_real and not gauge.w.is_real


def test_the_flag_argument_is_gone():
    grid = PeriodicGrid(1.0, 16)
    with pytest.raises(TypeError):
        SpectralField(grid, np.zeros(grid.n), is_real=True)
    assert SpectralField.__slots__ == ("grid", "coeffs")


def test_rule_is_one_bool_per_row():
    grid = PeriodicGrid(1.0, 16)
    rows = np.array([_full_band(grid, 8).coeffs, np.zeros(grid.n),
                     project(_full_band(grid, 9), "plus").coeffs])
    assert _conjugate_symmetric(rows).tolist() == [True, True, False]
    assert _conjugate_symmetric(rows.reshape(3, 1, grid.n)).shape == (3, 1)
    nan_row = rows[0].copy()
    nan_row[2] = nan_row[-2] = np.nan
    assert not _conjugate_symmetric(nan_row)


class TestCheckpointKeepsRealness:
    def test_nearly_symmetric_complex_field_loads_complex(self, tmp_path):
        # C_-1 one ulp away from C_1: a defect of 2e-16, which a tolerance
        # of 1e-13 once read back as real
        grid = PeriodicGrid(1.0, 16)
        c = np.zeros(grid.n, dtype=complex)
        c[1], c[-1] = 0.5, 0.5 + 1e-16
        f = SpectralField(grid, c)
        assert not f.is_real and symmetry_defect(f.coeffs) < 1e-13
        save_checkpoint(f, tmp_path / "f.bosp")
        loaded = load_checkpoint(tmp_path / "f.bosp")
        assert not loaded.is_real and np.array_equal(loaded.coeffs, f.coeffs)

    @pytest.mark.parametrize("kind", ["real field", "complex field", "trajectory"])
    def test_save_load_save_is_byte_identical(self, tmp_path, kind):
        grid = PeriodicGrid(1.5, 32)
        f = _full_band(grid, 10)
        obj = {"real field": f,
               "complex field": project(f, "plus") + 0.25j * f,
               "trajectory": solve(0.2 * f, SolverConfig("gbo", dt=0.01, t_final=0.04))}[kind]
        first, second = tmp_path / "a.bosp", tmp_path / "b.bosp"
        save_checkpoint(obj, first)
        loaded = load_checkpoint(first)
        if kind != "trajectory":
            assert loaded.is_real == (kind == "real field")
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("kind", ["bo_group", "schrodinger_group"])
@pytest.mark.parametrize("lam", [1.0, 5.0])
def test_strichartz_stack_mixes_real_and_complex_rows(kind, lam):
    # each row keeps its own Nyquist convention inside a mixed stack
    grid = PeriodicGrid(lam, 32)
    real_nyquist = _full_band(grid, 11, nyquist=0.45)
    plain_real = random_field(grid, np.random.default_rng(12), n_modes=9)
    complex_nyquist = project(_full_band(grid, 13, nyquist=0.2 - 0.3j), "plus")
    complex_row = 0.4j * _full_band(grid, 14) + project(plain_real, "minus")
    zero = SpectralField.zero(grid)
    stack = [real_nyquist, complex_nyquist, plain_real, zero, complex_row]
    assert [f.is_real for f in stack] == [True, False, True, True, False]
    got = strichartz_norms(stack, 0.8, kind=kind)
    want = [strichartz_norm(f, 0.8, kind=kind) for f in stack]
    assert got[3] == want[3] == 0.0
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
