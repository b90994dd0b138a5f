"""Each input rule has one message, whichever entry point applies it.

``bosp.spectral`` says each rule once: zero mean, one grid, real fields
and the gauge (variant, k) pair.  Every entry point that applies a
rule gets the same bad input and must raise that rule's message; the zero
mean, grid and real rules prefix it with the caller's name.  Every scalar
argument of the public API is checked by a ``_Rule``, whose message
starts "<name> must be ".
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bosp import (
    ConfigError,
    Equation,
    PeriodicGrid,
    SolverConfig,
    SpectralField,
    Trajectory,
    analyze,
    antiderivative,
    build_gauge,
    config_from_mapping,
    convergence_order,
    differentiate,
    dilate,
    drift_report,
    gauge_lipschitz_gap,
    gauge_residual,
    gauge_residual_batch,
    group_symbol,
    h1_apriori_check,
    invariant,
    multiply,
    norm,
    pde_residual,
    project,
    propagate,
    random_field,
    random_fields,
    renormalize_gbo,
    rhs_gbo_terms,
    solve,
    solve_batch,
    strichartz_norm,
    strichartz_norms,
    symmetry_defect,
    synthesize,
    xnorm,
    xnorm_series,
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


def _rng():
    return np.random.default_rng(0)


U = _cos(GRID)
TRAJ = Trajectory(GRID, [0.0, 0.1], np.zeros((2, GRID.n // 2 + 1)), "linear")
HUGE = 10 ** 400  # an int beyond float range

# One bad value of each scalar argument of the public API: NaN, a wrong
# type, out of range, a bool for a number, an int beyond float range or an
# order whose multiplier overflows on the grid.
SCALAR_ARGUMENTS = [
    ("PeriodicGrid", "lam", math.nan, lambda v: PeriodicGrid(v, 16)),
    ("PeriodicGrid", "lam", HUGE, lambda v: PeriodicGrid(v, 16)),
    ("PeriodicGrid", "lam", True, lambda v: PeriodicGrid(v, 16)),
    ("PeriodicGrid", "n", 16.0, lambda v: PeriodicGrid(1.0, v)),
    ("synthesize", "oversample", True, lambda v: synthesize(U, v)),
    ("synthesize", "oversample", 0, lambda v: synthesize(U, v)),
    ("project", "kind", "high", lambda v: project(U, v)),
    ("project", "cutoff", None, lambda v: project(U, "leq", v)),
    ("project", "cutoff", -1.0, lambda v: project(U, "gt", v)),
    ("project", "cutoff", math.nan, lambda v: project(U, "gt", v)),
    ("differentiate", "kind", "curl", lambda v: differentiate(U, v)),
    ("differentiate", "order", 0.5, lambda v: differentiate(U, "d_dx", v)),
    ("differentiate", "order", math.inf, lambda v: differentiate(U, "d_dx", v)),
    ("differentiate", "order", -0.5, lambda v: differentiate(U, "abs_d", v)),
    ("differentiate", "order", "1", lambda v: differentiate(U, "bessel", v)),
    ("differentiate", "order", True, lambda v: differentiate(U, "abs_d", v)),
    ("differentiate", "order", 1e300, lambda v: differentiate(U, "abs_d", v)),
    ("differentiate", "order", 1e20, lambda v: differentiate(U, "d_dx", v)),
    ("differentiate", "order", 1e300, lambda v: differentiate(U, "bessel", v)),
    ("norm", "kind", "l3", lambda v: norm(U, v)),
    ("norm", "p", 3, lambda v: norm(U, "lp", p=v)),
    ("norm", "p", None, lambda v: norm(U, "lp", p=v)),
    ("norm", "p", math.nan, lambda v: norm(U, "lp", p=v)),
    ("norm", "p", True, lambda v: norm(U, "lp", p=v)),
    ("norm", "p", np.True_, lambda v: norm(U, "lp", p=v)),
    ("norm", "p", 2 + 0j, lambda v: norm(U, "lp", p=v)),
    ("norm", "p", np.array(4), lambda v: norm(U, "lp", p=v)),
    ("norm", "s", None, lambda v: norm(U, "hs", s=v)),
    ("norm", "s", math.nan, lambda v: norm(U, "hs_dot", s=v)),
    ("norm", "s", True, lambda v: norm(U, "hs", s=v)),
    ("norm", "s", 1e300, lambda v: norm(U, "hs", s=v)),
    ("norm", "s", 1e308, lambda v: norm(U, "hs", s=v)),
    ("norm", "s", 1e300, lambda v: norm(U, "hs_dot", s=v)),
    ("norm", "s", -1.0, lambda v: norm(U, "hs_dot", s=v)),
    ("Trajectory", "k", True, lambda v: Trajectory(GRID, TRAJ.times, TRAJ.half_coeffs, "gbo", v)),
    ("group_symbol", "kind", "airy_group", lambda v: group_symbol(GRID, v)),
    ("propagate", "t", math.nan, lambda v: propagate(U, v)),
    ("propagate", "t", HUGE, lambda v: propagate(U, v)),
    ("propagate", "t", True, lambda v: propagate(U, v)),
    ("propagate", "kind", "d_dx", lambda v: propagate(U, 1.0, v)),
    ("strichartz_norms", "horizon", HUGE, lambda v: strichartz_norms([U], v)),
    ("strichartz_norms", "kind", "hilbert", lambda v: strichartz_norms([U], 1.0, v)),
    ("strichartz_norm", "horizon", 0.0, lambda v: strichartz_norm(U, v)),
    ("SolverConfig", "t_final", HUGE, lambda v: SolverConfig("gbo", dt=0.1, t_final=v)),
    ("SolverConfig", "t_final", math.nan, lambda v: replace(GBO, t_final=v)),
    ("SolverConfig", "dt", math.nan, lambda v: replace(GBO, dt=v)),
    ("SolverConfig", "k", True, lambda v: replace(GBO, k=v)),
    ("SolverConfig", "sample_stride", True, lambda v: replace(GBO, sample_stride=v)),
    ("Equation", "dealias", "pad4", lambda v: Equation(GRID, "gbo", 1, v)),
    ("convergence_order", "n_levels", 3.0, lambda v: convergence_order(U, GBO, v)),
    ("build_gauge", "k", True, lambda v: build_gauge(U, "gbo", v)),
    ("rhs_gbo_terms", "k", 1.5, lambda v: rhs_gbo_terms(U, v)),
    ("gauge_residual", "k", True, lambda v: gauge_residual(U, "gbo", v)),
    ("gauge_lipschitz_gap", "variant", "kdv", lambda v: gauge_lipschitz_gap(U, U, v)),
    ("invariant", "which", "H", lambda v: invariant(U, v)),
    ("invariant", "which", "H", lambda v: invariant(TRAJ, v)),
    ("invariant", "k", 0, lambda v: invariant(U, "E_gbo", k=v)),
    ("invariant", "k", -1, lambda v: invariant(U, "E_gbo", k=v)),
    ("invariant", "k", 1.5, lambda v: invariant(U, "E_gbo", k=v)),
    ("invariant", "sign", math.nan, lambda v: invariant(U, "M", sign=v)),
    ("invariant", "sign", 0.5, lambda v: invariant(U, "F_bo", sign=v)),
    ("invariant", "sign", True, lambda v: invariant(U, "F_bo", sign=v)),
    ("invariant", "sign", np.True_, lambda v: invariant(U, "F_bo", sign=v)),
    ("invariant", "sign", -1 + 0j, lambda v: invariant(U, "F_bo", sign=v)),
    ("invariant", "sign", np.array(-1), lambda v: invariant(U, "F_bo", sign=v)),
    ("xnorm", "level", 3, lambda v: xnorm(TRAJ, v)),
    ("xnorm_series", "level", True,
     lambda v: xnorm_series(TRAJ.times, np.zeros((2, GRID.n)), GRID, v)),
    ("dilate", "lam", 0.5, lambda v: dilate(U, v)),
    ("dilate", "lam", math.nan, lambda v: dilate(U, v)),
    ("random_fields", "count", -1, lambda v: random_fields(GRID, _rng(), v)),
    ("random_fields", "count", True, lambda v: random_fields(GRID, _rng(), v)),
    ("random_fields", "n_modes", 2.7, lambda v: random_fields(GRID, _rng(), 2, n_modes=v)),
    ("random_fields", "n_modes", math.nan, lambda v: random_fields(GRID, _rng(), 2, n_modes=v)),
    ("random_fields", "n_modes", 0, lambda v: random_fields(GRID, _rng(), 2, n_modes=v)),
    ("random_fields", "normalize", "h3", lambda v: random_fields(GRID, _rng(), 2, normalize=v)),
    ("random_field", "decay", math.nan, lambda v: random_field(GRID, _rng(), decay=v)),
    ("random_field", "amplitude", HUGE, lambda v: random_field(GRID, _rng(), amplitude=v)),
    ("random_field", "amplitude", True, lambda v: random_field(GRID, _rng(), amplitude=v)),
    ("random_field", "mean", math.inf, lambda v: random_field(GRID, _rng(), mean=v)),
]


@pytest.mark.parametrize("entry, param, value, call", SCALAR_ARGUMENTS,
                         ids=[f"{e}-{p}-{str(v)[:8]}" for e, p, v, _ in SCALAR_ARGUMENTS])
def test_scalar_argument_is_refused_by_its_rule(entry, param, value, call):
    # each raised its own text, a numpy error or warning, or returned a value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _raised(lambda: call(value)).startswith(f"{param} must be ")


def test_real_rule_names_the_first_bad_row():
    # the row named is the first that is complex or non-finite
    nan = _cos(GRID).coeffs.copy()
    nan[3] = np.nan
    rows = [_cos(GRID), _complex(GRID), SpectralField(GRID, nan)]
    assert _raised(lambda: solve_batch(rows, GBO)).endswith(
        "field 1 is complex (its coefficients are not exactly conjugate symmetric)")
    assert _raised(lambda: solve_batch(rows[::-1], GBO)).endswith(
        "field 0 is non-finite (a coefficient is NaN or infinite)")


@pytest.mark.parametrize("slot", [3, 0, 8])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                   complex(0, np.inf), complex(0, -np.inf)])
def test_trajectory_refuses_a_non_finite_coefficient(slot, value):
    # the trajectory kernels trust their stack to be finite; a NaN in slot 0
    # or n/2 is named as non-finite, not as breaking the realness rule
    grid = PeriodicGrid(1.0, 16)
    half = np.zeros((5, grid.n // 2 + 1), dtype=complex)
    half[2, slot] = value
    assert _raised(lambda: Trajectory(grid, np.arange(5) * 0.1, half, "gbo")) == (
        "Trajectory needs finite fields: field 2 is non-finite "
        "(a coefficient is NaN or infinite)")


def test_trajectory_names_its_first_non_finite_field():
    grid = PeriodicGrid(1.0, 16)
    half = np.zeros((5, grid.n // 2 + 1), dtype=complex)
    half[4, 1], half[1, 0] = np.inf, np.nan
    assert _raised(lambda: Trajectory(grid, np.arange(5) * 0.1, half, "gbo")) == (
        "Trajectory needs finite fields: field 1 is non-finite "
        "(a coefficient is NaN or infinite)")


def _huge_field(grid):
    c = np.zeros(grid.n, dtype=complex)
    c[1] = c[-1] = 1e200
    return SpectralField(grid, c)


HUGE_GRID = PeriodicGrid(1.0, 16)
HUGE_U = _huge_field(HUGE_GRID)
HUGE_HALF = np.tile(HUGE_U.coeffs[: HUGE_GRID.n // 2 + 1], (5, 1))


def _huge_traj(equation, k=1, half=HUGE_HALF):
    """Five snapshots of the huge field under ``equation`` (a solve of it blows up)."""
    return Trajectory(HUGE_GRID, np.arange(5) * 0.1, half, equation, k)


HUGE_TRAJ = _huge_traj("bo2")
MAX_U = 1e108 * HUGE_U  # coefficients 1e308: the field is finite, twice it is not

# Each call forms a value of finite coefficients that overflows a float, and
# the name it is refused under.
OVERFLOWING = [
    ("norm-lp2", "the lp norm", lambda: norm(HUGE_U, "lp", p=2)),
    ("norm-lp4", "the lp norm", lambda: norm(HUGE_U, "lp", p=4)),
    ("norm-hs", "the hs norm", lambda: norm(HUGE_U, "hs", s=1.0)),
    ("norm-hs_dot", "the hs_dot norm", lambda: norm(HUGE_U, "hs_dot", s=1.0)),
    *[(f"invariant-{which}-{k}-{on}", which, lambda which=which, k=k, f=f: invariant(f, which, k))
      for which, k in [("M", 1), ("F_bo", 1), ("E_gbo", 1), ("E_gbo", 4)]
      for on, f in [("field", HUGE_U), ("trajectory", HUGE_TRAJ)]],
    ("drift_report-gbo-1", "M", lambda: drift_report(_huge_traj("gbo"))),
    ("drift_report-gbo-4", "M", lambda: drift_report(_huge_traj("gbo", 4))),
    ("strichartz_norm", "the strichartz norm", lambda: strichartz_norm(HUGE_U, 1.0)),
    ("strichartz_norms", "the strichartz norm",
     lambda: strichartz_norms([0.1 * _cos(HUGE_GRID), HUGE_U], 1.0)),
    ("multiply", "the product", lambda: multiply(HUGE_U, HUGE_U)),
    ("xnorm-0", "the level-0 xnorm", lambda: xnorm(HUGE_TRAJ, 0)),
    ("xnorm-1", "the level-1 xnorm", lambda: xnorm(HUGE_TRAJ, 1)),
    ("xnorm-2", "the level-2 xnorm", lambda: xnorm(HUGE_TRAJ, 2)),
    ("xnorm_series", "the level-1 xnorm",
     lambda: xnorm_series(HUGE_TRAJ.times, np.tile(HUGE_U.coeffs, (5, 1)), HUGE_GRID, 1)),
    ("h1_apriori_check", "the H^1 norm", lambda: h1_apriori_check(HUGE_TRAJ)),
    ("gauge_residual-bo-field", "the bo gauge", lambda: gauge_residual(HUGE_U, "bo")),
    ("gauge_residual-bo-trajectory", "the bo gauge", lambda: gauge_residual(HUGE_TRAJ, "bo")),
    # rows of finite coefficients 1e100 are finite, and the stencil's norms overflow
    ("gauge_residual-bo-norms", "the bo gauge",
     lambda: gauge_residual(_huge_traj("bo2", half=1e-100 * HUGE_HALF), "bo")),
    ("gauge_residual-gbo-field", "the gbo gauge", lambda: gauge_residual(HUGE_U, "gbo", 3)),
    ("gauge_residual-gbo-trajectory", "the gbo gauge",
     lambda: gauge_residual(_huge_traj("renormalized_gbo", 3), "gbo", 3)),
    ("gauge_lipschitz_gap", "the lp norm",
     lambda: gauge_lipschitz_gap(HUGE_U, SpectralField.zero(HUGE_GRID))),
    ("pde_residual-bo2", "the bo2 equation", lambda: pde_residual(HUGE_TRAJ)),
    ("pde_residual-gbo", "the gbo equation", lambda: pde_residual(_huge_traj("gbo", 3))),
    ("pde_residual-renormalized_gbo", "the renormalized_gbo equation",
     lambda: pde_residual(_huge_traj("renormalized_gbo", 2))),
    ("renormalize_gbo", "the renormalization", lambda: renormalize_gbo(_huge_traj("gbo", 3))),
    # coefficients 1e308 and values 1.7e308, whose sums overflow
    ("field-add", "field arithmetic", lambda: MAX_U + MAX_U),
    ("field-subtract", "field arithmetic", lambda: MAX_U - (-MAX_U)),
    ("field-scale", "field arithmetic", lambda: 2.0 * MAX_U),
    ("synthesize", "the synthesis", lambda: synthesize(MAX_U)),
    ("analyze", "the analysis", lambda: analyze(1.7e308 * np.cos(HUGE_GRID.x), HUGE_GRID)),
    ("symmetry_defect", "the symmetry defect",
     lambda: symmetry_defect(MAX_U.coeffs * np.where(np.arange(16) > 8, -1, 1))),
]
# the inputs and their largest magnitude, where not coefficients up to 1e+200
UP_TO = {"gauge_residual-bo-norms": "coefficients up to 1e+100",
         **dict.fromkeys(("field-add", "field-subtract", "field-scale", "synthesize",
                          "symmetry_defect"), "coefficients up to 1e+308"),
         "analyze": "values up to 1.7e+308"}


@pytest.mark.parametrize("entry, who, call", OVERFLOWING, ids=[e for e, _, _ in OVERFLOWING])
def test_overflow_is_refused_by_name_without_a_warning(entry, who, call):
    # each raised numpy's overflow RuntimeWarning, or returned inf or NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _raised(call) == (f"{who} overflows a float at "
                                 f"{UP_TO.get(entry, 'coefficients up to 1e+200')}")


def test_non_finite_coefficients_keep_their_nan():
    # only a value of finite coefficients is refused: NaN in, NaN out, also
    # next to coefficients whose values overflow, and numpy does not warn
    for u in (_cos(GRID), HUGE_U):
        c = u.coeffs.copy()
        c[2] = c[-2] = np.nan
        nan = SpectralField(u.grid, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(norm(nan, "lp", p=4))
            assert np.isnan(multiply(nan, nan).coeffs).all()
            assert math.isnan(xnorm_series([0.0, 0.1], np.array([c, c]), u.grid, 1))
