"""Each input rule has one message, whichever entry point applies it.

``bosp.spectral`` says each rule once: zero mean, one grid, real fields
and the gauge (variant, k) pair.  Every entry point that applies a
rule gets the same bad input and must raise that rule's message; the zero
mean, grid and real rules prefix it with the caller's name.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from bosp import (
    ConfigError,
    PeriodicGrid,
    SolverConfig,
    SpectralField,
    antiderivative,
    build_gauge,
    config_from_mapping,
    convergence_order,
    dilate,
    gauge_lipschitz_gap,
    gauge_residual,
    gauge_residual_batch,
    invariant,
    multiply,
    random_fields,
    solve,
    solve_batch,
    strichartz_norms,
)

GRID = PeriodicGrid(1.0, 32)
OTHER_GRID = PeriodicGrid(2.0, 32)


def _cos(grid):
    return 0.1 * SpectralField.from_function(grid, np.cos)


def _with_mean(grid, mean):
    c = _cos(grid).coeffs.copy()
    c[0] = mean
    return SpectralField(grid, c)


def _complex(grid):
    c = np.zeros(grid.n, dtype=complex)
    c[1] = 0.1
    return SpectralField(grid, c)


def _raised(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


RENORMALIZED = SolverConfig("renormalized_gbo", k=2, dt=0.01, t_final=0.02)
GBO = SolverConfig("gbo", dt=0.01, t_final=0.02)


@pytest.mark.parametrize("entry", ["solve_batch", "gauge_residual_batch", "build_gauge",
                                   "antiderivative"])
def test_zero_mean_rule(entry):
    u = _with_mean(GRID, 0.1)
    call = {"solve_batch": lambda: solve_batch([_cos(GRID), u], RENORMALIZED),
            "gauge_residual_batch": lambda: gauge_residual_batch([_cos(GRID), u], "gbo", 2),
            "build_gauge": lambda: build_gauge(u, "bo"),
            "antiderivative": lambda: antiderivative(u)}[entry]
    index = 0 if entry in ("build_gauge", "antiderivative") else 1
    assert _raised(call).endswith(
        f" needs zero-mean data: field {index} has |C_0| = 1.000e-01 >= 1e-10")


@pytest.mark.parametrize("entry", ["solve_batch", "gauge_residual_batch", "strichartz_norms",
                                   "add", "sub", "multiply", "gauge_lipschitz_gap"])
def test_one_grid_rule(entry):
    a, b = _cos(GRID), _cos(OTHER_GRID)
    call = {"solve_batch": lambda: solve_batch([a, b], GBO),
            "gauge_residual_batch": lambda: gauge_residual_batch([a, b], "bo"),
            "strichartz_norms": lambda: strichartz_norms([a, b], 1.0),
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "multiply": lambda: multiply(a, b),
            "gauge_lipschitz_gap": lambda: gauge_lipschitz_gap(a, b)}[entry]
    assert _raised(call).endswith(
        f" needs fields on one grid: field 1 is on {OTHER_GRID}, field 0 on {GRID}")


@pytest.mark.parametrize("entry", ["solve_batch", "gauge_residual_batch", "build_gauge",
                                   "invariant"])
def test_real_flagged_rule(entry):
    # the rule tests the whole stack at once and names its first complex row
    c = _complex(GRID)
    call = {"solve_batch": lambda: solve_batch([_cos(GRID), c, c], GBO),
            "gauge_residual_batch": lambda: gauge_residual_batch([_cos(GRID), c, c], "bo"),
            "build_gauge": lambda: build_gauge(c, "bo"),
            "invariant": lambda: invariant(c, "M")}[entry]
    index = 0 if entry in ("build_gauge", "invariant") else 1
    assert _raised(call).endswith(
        f" needs real fields: field {index} is complex "
        "(its coefficients are not exactly conjugate symmetric)")


@pytest.mark.parametrize("entry", ["solve_batch", "gauge_residual", "invariant"])
def test_real_rule_names_a_non_finite_row(entry):
    # a NaN coefficient breaks conjugate symmetry too; the message said "complex"
    c = _cos(GRID).coeffs.copy()
    c[3] = np.nan
    u = SpectralField(GRID, c)
    call = {"solve_batch": lambda: solve_batch([_cos(GRID), u], GBO),
            "gauge_residual": lambda: gauge_residual(u, "bo"),
            "invariant": lambda: invariant(u, "M")}[entry]
    index = 1 if entry == "solve_batch" else 0
    assert _raised(call).endswith(
        f" needs real fields: field {index} is non-finite (a coefficient is NaN or infinite)")


@pytest.mark.parametrize("entry", ["solve", "gauge_residual", "invariant"])
def test_real_rule_refuses_symmetric_infinite_coefficients(entry):
    # exactly conjugate symmetric, so a real field by symmetry alone
    grid = PeriodicGrid(1.0, 16)
    c = np.zeros(grid.n, dtype=complex)
    c[1] = c[15] = np.inf
    u = SpectralField(grid, c)
    assert u.is_real
    call = {"solve": lambda: solve(u, GBO),
            "gauge_residual": lambda: gauge_residual(u, "bo"),
            "invariant": lambda: invariant(u, "M")}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _raised(call).endswith(
            " needs real fields: field 0 is non-finite (a coefficient is NaN or infinite)")


# The variant and k rules come before the pair rule, in the library as in a
# config, so every entry gives one text.
@pytest.mark.parametrize("variant, k, message", [
    ("bo", 3, "the bo variant has k = 1, got k = 3"),
    ("bo", 0, "k must be an integer >= 1, got 0"),
    ("gbo", 0, "k must be an integer >= 1, got 0"),
    ("gbo", 1.5, "k must be an integer >= 1, got 1.5"),
    ("gbo", -1, "k must be an integer >= 1, got -1"),
    ("kdv", 1, "variant must be one of bo, gbo, got 'kdv'"),
])
@pytest.mark.parametrize("entry", ["gauge_residual_batch", "build_gauge", "dilate",
                                   "scaling config", "gauge-residual config"])
def test_gauge_variant_rule(entry, variant, k, message):
    u = _cos(GRID)
    call = {"gauge_residual_batch": lambda: gauge_residual_batch([u], variant, k),
            "build_gauge": lambda: build_gauge(u, variant, k),
            "dilate": lambda: dilate(u, 2.0, variant, k),
            "scaling config": lambda: config_from_mapping(
                "scaling", {"variant": variant, "k": k}),
            "gauge-residual config": lambda: config_from_mapping(
                "gauge-residual", {"variant": variant, "k": k})}[entry]
    if entry.endswith("config"):
        with pytest.raises(ConfigError):
            call()
    assert _raised(call) == message


# One bad value of each key that a library parameter shares with the config,
# the experiment that reads the key, and the library call that takes it.
SHARED_KEYS = {
    "n": ("simulate", 6, lambda v: PeriodicGrid(1.0, v)),
    "lam": ("simulate", 0.0, lambda v: PeriodicGrid(v, 32)),
    "k": ("simulate", 0, lambda v: replace(GBO, k=v)),
    "equation": ("simulate", "kdv", lambda v: replace(GBO, equation=v)),
    "variant": ("gauge-residual", "kdv", lambda v: gauge_residual(_cos(GRID), v)),
    "dt": ("simulate", -1.0, lambda v: replace(GBO, dt=v)),
    "scheme": ("simulate", "rk45", lambda v: replace(GBO, scheme=v)),
    "dealias": ("simulate", "pad4", lambda v: replace(GBO, dealias=v)),
    "sample_stride": ("simulate", 0, lambda v: replace(GBO, sample_stride=v)),
    "n_levels": ("convergence", 2, lambda v: convergence_order(_cos(GRID), GBO, v)),
    "horizon": ("strichartz-scan", 0.0, lambda v: strichartz_norms([_cos(GRID)], v)),
    "decay": ("gauge-residual", 2.0,
              lambda v: random_fields(GRID, np.random.default_rng(0), 1, decay=v)),
}


@pytest.mark.parametrize("key", SHARED_KEYS)
def test_library_and_config_refuse_a_shared_key_in_one_text(key):
    # the library once said "unknown scheme 'rk45'", "need at least 3
    # refinement levels" or "time horizon must be ...", and took decay = 2
    name, value, call = SHARED_KEYS[key]
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(name, {key: value})
    assert str(exc.value).startswith(f"{key} must be ")
    assert _raised(lambda: call(value)) == str(exc.value)
