"""Each input rule has one message, whichever entry point applies it.

``bosp.spectral`` says each rule once: zero mean, one grid, real fields
and the gauge (variant, k) pair.  Every entry point that applies a
rule gets the same bad input and must raise that rule's message; the zero
mean, grid and real rules prefix it with the caller's name.
"""

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
    dilate,
    gauge_lipschitz_gap,
    gauge_residual_batch,
    invariant,
    multiply,
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


# A config applies the rule table's variant and k rules before the pair
# rule, so those decide a bad variant or a k that is not an integer >= 1.
CONFIG_MESSAGES = {
    ("bo", 0): "k must be an integer >= 1, got 0",
    ("gbo", 0): "k must be an integer >= 1, got 0",
    ("gbo", 1.5): "k must be an integer >= 1, got 1.5",
    ("gbo", -1): "k must be an integer >= 1, got -1",
    ("kdv", 1): "variant must be one of bo, gbo, got 'kdv'",
}


@pytest.mark.parametrize("variant, k, message", [
    ("bo", 3, "the bo variant has k = 1, got k = 3"),
    ("bo", 0, "the bo variant has k = 1, got k = 0"),
    ("gbo", 0, "the gbo variant needs an integer k >= 1, got k = 0"),
    ("gbo", 1.5, "the gbo variant needs an integer k >= 1, got k = 1.5"),
    ("gbo", -1, "the gbo variant needs an integer k >= 1, got k = -1"),
    ("kdv", 1, "unknown gauge variant 'kdv'"),
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
        message = CONFIG_MESSAGES.get((variant, k), message)
        with pytest.raises(ConfigError):
            call()
    assert _raised(call) == message
