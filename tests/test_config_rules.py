"""Config rules: one rule per key name, cross-key checks, solver settings at config time."""

import copy
import math
import pickle
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bosp import (ConfigError, ExperimentConfig, SolverConfig, config_from_mapping,
                  run_experiment)
from bosp import experiments
from bosp.cli import build_parser, main
from bosp.experiments import _EXPERIMENTS, _FINITE, _RULES, EXPERIMENT_NAMES

TINY = math.ulp(0.0)  # the least positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)
NON_FINITE = [math.nan, math.inf, -math.inf]

# For each key: values just outside its rule (the first one spelled on the
# command line too), values just inside it, and the settings that make room
# for them under the experiment's cross-key and solver rules.
EDGES = {
    "seed": ([-1, 0.5, True], [0], {}),
    # bernstein's draws must reach above its high pass q > 1 on each circle
    "n": ([6, 7, 8.0], [8], {"n_modes": 3, "lambdas": (1.0, 2.0)}),
    "k": ([0, 1.5, True], [1], {}),
    "sample_stride": ([0, 1.0, True], [1], {}),
    "n_samples": ([0], [1], {"shrink_samples": 1}),
    "shrink_samples": ([0], [1], {}),
    "n_modes": ([-1, 1.0], [0], {}),
    "n_levels": ([2], [3], {}),
    "equation": (["kdv", 1], ["linear", "renormalized_gbo"], {}),
    "scheme": (["rk45", "ifrk4"], ["etd_rk4"], {}),
    "dealias": (["none", "pad4", "pad3", "two-thirds"], ["alias_free", "two_thirds"], {}),
    "variant": (["kdv", ""], ["bo", "gbo"], {}),
    "decay": ([0.0, math.nextafter(1.0, 2.0), -1.0, *NON_FINITE, True], [TINY, 1.0], {}),
    "dilation": ([1.0, 0.5, *NON_FINITE, True], [ABOVE_ONE], {}),
    "e_ks": ([(0,), (), (2, 2), (1.5,)], [(1,)], {}),
    "lambdas": ([(1.0,), (), (1.0, 1.0), (0.0, 1.0), (1.0, math.nan)], [(1.0, 2.0)], {}),
}
# every finite-and-positive key: the least positive float is inside; a step
# or horizon that small needs its partner as small.  An int beyond float
# range is not finite (math.isfinite raised OverflowError on it), nor is a
# bool (True was taken as 1.0).
_ROOM = {"dt": {"t_final": TINY, "sample_stride": 1}, "t_final": {"dt": TINY, "sample_stride": 1}}
EDGES.update({key: ([0.0, -1.0, *NON_FINITE, 10 ** 400, True], [TINY], _ROOM.get(key, {}))
              for key, rule in _RULES.items() if key not in EDGES})
# a circle's circumference 2 pi lam must be finite too: the largest such lam and the next float
LAM_MAX = sys.float_info.max / (2.0 * math.pi)
while not math.isfinite(2.0 * math.pi * LAM_MAX):
    LAM_MAX = math.nextafter(LAM_MAX, 0.0)
while math.isfinite(2.0 * math.pi * math.nextafter(LAM_MAX, math.inf)):
    LAM_MAX = math.nextafter(LAM_MAX, math.inf)
EDGES["lam"] = EDGES["lam"][0] + [math.nextafter(LAM_MAX, math.inf)], [TINY, LAM_MAX], {}
# conservation's order study steps at e_dt / 4 too, which is 0 below 4 * TINY
EDGES["e_dt"] = EDGES["e_dt"][0], [4 * TINY], {"e_t_final": 4 * TINY}
EDGES["e_t_final"] = EDGES["e_t_final"][0], [4 * TINY], {"e_dt": 4 * TINY}
EDGES["order_max"] = EDGES["order_max"][0], [2 * TINY], {"order_min": TINY}
# a key the table does not name need only be finite
UNNAMED = ([*NON_FINITE, 10 ** 400, True], [-1.0, 0.0], {})

# Where a cross-key check of the experiment is tighter than the key's rule,
# the value just inside the check instead.
TIGHTER = {("gauge-residual", "n"): 16,
           **{(name, "n_modes"): 1 for name in EXPERIMENT_NAMES
              if name != "gauge-residual" and "n_modes" in _EXPERIMENTS[name].keys},
           # bernstein's lam = 1 circle needs a drawn mode above its high pass q > 1
           ("bernstein", "n_modes"): 2}


def _defaults(name) -> dict:
    """The keys of a ``name`` config, seed included, with their defaults."""
    return {key: val for key, val in ExperimentConfig(name).as_dict().items() if key != "name"}


KEYS = [(name, key) for name in EXPERIMENT_NAMES for key in _defaults(name)]


def _spelled(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)


def test_every_rule_has_edges():
    assert set(EDGES) == set(_RULES)
    assert {key for _, key in KEYS} >= set(_RULES)


def test_module_rule_tables_share_no_key():
    # experiments._RULES merges the tables with **, where a repeated key
    # would silently replace another module's rule
    from bosp import ensembles, evolve, lingroup, spectral

    tables = [spectral._RULES, evolve._RULES, lingroup._RULES, ensembles._RULES]
    names = [name for table in tables for name in table]
    assert len(names) == len(set(names))
    for table in tables:
        assert all(_RULES[name] is rule for name, rule in table.items())


@pytest.mark.parametrize("name, key", KEYS)
def test_rule_refuses_just_outside_and_takes_just_inside(name, key, tmp_path, capsys):
    outside, inside, room = EDGES.get(key, UNNAMED)
    room = {k: v for k, v in room.items() if k in _EXPERIMENTS[name].keys}
    text = f"{key} must be {_RULES.get(key, _FINITE).text}, got "
    for value in outside:
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(name, {**room, key: value})
        assert str(exc.value) == text + repr(value), value
    for value in [TIGHTER.get((name, key))] if (name, key) in TIGHTER else inside:
        cfg = config_from_mapping(name, {**room, key: value})
        assert getattr(cfg, key) == value
    assert main([name, f"--{key.replace('_', '-')}", _spelled(outside[0]),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {text}") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


# Configs that were accepted and ran, or failed only once the run started;
# each is refused by a rule, with this message, before anything runs.
NEWLY_REFUSED = [
    ("gauge-residual", {"n_samples": "3", "shrink_samples": "10"},
     "shrink_samples must be at most n_samples = 3, got 10"),
    ("convergence", {"n_levels": "2"}, "n_levels must be an integer >= 3, got 2"),
    ("scaling", {"dilation": "1"}, "dilation must be finite and above 1, got 1.0"),
    ("strichartz-scan", {"lambdas": "1,1,2", "n_samples": "2"},
     "lambdas must be a list of 2 or more distinct values, each finite and positive, "
     "got (1.0, 1.0, 2.0)"),
    ("bernstein", {"lambdas": "1,1,4"},
     "lambdas must be a list of 2 or more distinct values, each finite and positive, "
     "got (1.0, 1.0, 4.0)"),
    ("conservation", {"e_ks": "2,2"},
     "e_ks must be a list of 1 or more distinct values, each an integer >= 1, got (2, 2)"),
    ("simulate", {"equation": "kdv"},
     "equation must be one of linear, bo2, gbo, renormalized_gbo, got 'kdv'"),
    ("simulate", {"k": "0"}, "k must be an integer >= 1, got 0"),
    ("simulate", {"n": "7"}, "n must be an even integer >= 8, got 7"),
    ("simulate", {"dt": "-1"}, "dt must be finite and positive, got -1.0"),
    ("simulate", {"sample_stride": "0"}, "sample_stride must be an integer >= 1, got 0"),
    ("simulate", {"equation": "renormalized_gbo", "gamma": "0.5"},
     "gamma must be 0 for the renormalized_gbo equation, got 0.5"),
    ("simulate", {"t_final": "0.0505"},
     "t_final = 0.0505 is not an integer number of steps dt = 0.001"),
    ("flowmap", {"seed": "-1"}, "seed must be an integer >= 0, got -1"),
    ("estimate-monitor", {"lam": "0"},
     "lam must be finite and positive, with 2 * pi * lam finite, got 0.0"),
    # a circumference that overflows made the grid's points inf and NaN
    ("simulate", {"lam": "1e308"},
     "lam must be finite and positive, with 2 * pi * lam finite, got 1e+308"),
    # a solve whose steps come from other keys names those keys and the solve
    ("conservation", {"e_dt": "1.0", "e_t_final": "0.5"},
     "energy_k2 solve: e_t_final must be finite and at least e_dt, got 0.5"),
    ("conservation", {"e_dt": "0.3", "e_t_final": "0.5"},
     "energy_k2 solve: e_t_final = 0.5 is not an integer number of steps e_dt = 0.3"),
    ("conservation", {"e_ks": "3,2", "e_dt": "0.3", "e_t_final": "0.5"},
     "energy_k3 solve: e_t_final = 0.5 is not an integer number of steps e_dt = 0.3"),
    ("scaling", {"dt": "1e300", "t_final": "1e308"},
     "dilated solve: dilation^2 * t_final must be finite and at least dilation^2 * dt, "
     "got inf"),
    ("simulate", {"dealias": "pad4"},
     "dealias must be one of two_thirds, alias_free, got 'pad4'"),
    # the high pass q > 1 kept no drawn mode: every ratio was 0, the verdict 0/0
    ("bernstein", {"n_modes": "1", "lambdas": "1,2", "n_samples": "2"},
     "lambdas entry 1.0 draws modes up to min(int(n_modes * lam), n/2 - 1) = 1 at "
     "n_modes = 1, n = 256; the high pass q > 1 needs one above lam = 1.0"),
    # the order study's finer steps e_dt / 2^j must be positive floats too
    ("conservation", {"e_dt": "5e-324", "e_t_final": "5e-324"},
     "energy_k2 dt/2 solve: e_dt/2 must be finite and positive, got 0.0"),
]


@pytest.mark.parametrize("name, overrides, message", NEWLY_REFUSED)
def test_refused_at_config_time(name, overrides, message, tmp_path, capsys, monkeypatch):
    from bosp import cli

    with pytest.raises(ConfigError) as exc:
        config_from_mapping(name, overrides)
    assert str(exc.value) == message
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("the experiment ran"))
    flags = [arg for key, val in overrides.items() for arg in (f"--{key.replace('_', '-')}", val)]
    assert main([name, *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def _countdown_stride(steps, target_snapshots):
    """The stride search as first written: down from steps // target, one at a time."""
    want = max(1, steps // target_snapshots)
    for s in range(want, 0, -1):
        if steps % s == 0:
            return s


@pytest.mark.parametrize("target", [1, 25, 200])
def test_dividing_stride_equals_the_countdown(target):
    steps = range(1, 20001)
    assert ([experiments._dividing_stride(s, target) for s in steps]
            == [_countdown_stride(s, target) for s in steps])


def test_prime_step_count_builds_quickly():
    # 1000000007 steps is prime: the countdown tried 4e7 strides, about 3 s
    start = time.perf_counter()
    cfg = config_from_mapping("conservation", {"e_dt": 0.5 / 1000000007, "e_t_final": 0.5})
    assert time.perf_counter() - start < 0.5
    assert cfg.solvers["energy_k2"].sample_stride == 1


class _Solved(Exception):
    pass


@pytest.mark.parametrize("name", [name for name in EXPERIMENT_NAMES
                                  if ExperimentConfig(name).solvers])
def test_a_run_solves_with_the_settings_its_config_built(name, monkeypatch):
    cfg = ExperimentConfig(name)

    def solved(u0, solver, *args):
        raise _Solved(solver)

    for fn in ("solve", "solve_batch", "_solve", "convergence_order"):
        monkeypatch.setattr(experiments, fn, solved)
    monkeypatch.setattr(experiments, "SolverConfig",
                        lambda *a, **kw: pytest.fail("solver settings built at run time"))
    with pytest.raises(_Solved) as exc:
        _EXPERIMENTS[name].run(cfg, np.random.default_rng(0))
    # ``_solve`` takes a list of configs, one per row
    got = exc.value.args[0]
    for solver in got if isinstance(got, list) else [got]:
        assert any(solver is built for built in cfg.solvers.values())


@pytest.mark.parametrize("name", [name for name in EXPERIMENT_NAMES
                                  if ExperimentConfig(name).solvers])
def test_default_solvers_take_solver_configs_defaults(name):
    # the experiments' shared defaults read SolverConfig's, not literals of their own
    for solver in ExperimentConfig(name).solvers.values():
        assert (solver.scheme, solver.dealias) == (SolverConfig.scheme, SolverConfig.dealias)


def test_solvers_are_not_part_of_the_config_echo():
    cfg = config_from_mapping("conservation", {"e_ks": "3, 2"})
    assert list(cfg.solvers) == ["reference", "energy_k3", "energy_k3 dt/2", "energy_k3 dt/4",
                                 "energy_k2", "energy_k2 dt/2", "energy_k2 dt/4"]
    assert "solvers" not in cfg.as_dict() and "solvers" not in repr(cfg)
    assert cfg == config_from_mapping("conservation", {"e_ks": (3, 2)})
    with pytest.raises(AttributeError):
        cfg.solvers = {}
    # a copy, a pickle round trip included, is the same config with its solvers
    for other in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert other == cfg and other.solvers == cfg.solvers


def test_help_prints_each_key_rule_beside_its_default():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "experiment"]
    for name in EXPERIMENT_NAMES:
        helps = {a.dest: a.help for a in subparsers.choices[name]._actions}
        for key, default in _defaults(name).items():
            rule = _RULES.get(key, _FINITE).text
            assert helps[key] == f"{rule} (default: {_spelled(default)})", (name, key)


def test_help_text_reaches_the_terminal(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gauge-residual", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--decay VALUE in (0, 1] (default: 0.8)" in out
    assert "--variant VALUE one of bo, gbo (default: gbo)" in out


# Every experiment made cheap: small grids, short horizons and few samples.
# Each key ranges over values on both sides of its rules, so most draws are
# refused; the rest must run to a verdict.  One accepted input still ends in
# a usage error by design and is left out: a decay so small (about 1e-160)
# that every drawn envelope underflows to zero, a "degenerate draw" that
# depends on the draw (test_degenerate_draw_exit_code pins its exit 2).
_SMALL = {
    "seed": st.integers(-1, 3),
    "lam": st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    "n": st.sampled_from([6, 7, 8, 16, 24, 32]),
    "k": st.integers(0, 3),
    "equation": st.sampled_from(["linear", "bo2", "gbo", "renormalized_gbo", "kdv"]),
    "n_samples": st.integers(0, 3),
    "shrink_samples": st.integers(0, 3),
    "n_modes": st.integers(-1, 16),
    "decay": st.sampled_from([0.0, 0.3, 0.8, 1.0, 1.5]),
    "amplitude": st.sampled_from([0.0, -0.1, 0.1]),
    "gamma": st.sampled_from([0.0, 0.5]),
    "variant": st.sampled_from(["bo", "gbo", "kdv"]),
    "horizon": st.sampled_from([0.0, 0.5, 1.0]),
    "lambdas": st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), max_size=3).map(tuple),
    "dt": st.sampled_from([0.0, 0.01, 0.02, 0.03]),
    "t_final": st.sampled_from([0.0, 0.01, 0.02, 0.04, 0.05]),
    "sample_stride": st.integers(0, 3),
    "scheme": st.sampled_from(["if_rk4", "etd_rk4", "rk45"]),
    "dealias": st.sampled_from(["alias_free", "two_thirds", "none", "pad4"]),
    "e_ks": st.lists(st.integers(0, 3), max_size=2).map(tuple),
    "e_dt": st.sampled_from([0.0, 0.01, 0.03]),
    "perturbation": st.sampled_from([0.0, 1e-3, 0.1]),
    "shrink_factor": st.sampled_from([0.0, 10.0]),
    "dilation": st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    "n_levels": st.integers(2, 4),
    "order_min": st.sampled_from([0.0, 3.8, 4.2]),
    "order_max": st.sampled_from([3.8, 4.2]),
}
_CHEAP = dict(n=16, n_samples=2, shrink_samples=1, n_modes=2, dt=0.01, t_final=0.04,
              sample_stride=1, e_dt=0.01, e_t_final=0.04)


@st.composite
def _overrides(draw):
    name = draw(st.sampled_from(EXPERIMENT_NAMES))
    keys = _defaults(name).keys()
    chosen = draw(st.lists(st.sampled_from([key for key in _SMALL if key in keys]), unique=True))
    return name, {**{key: val for key, val in _CHEAP.items() if key in keys},
                  **{key: draw(_SMALL[key]) for key in chosen}}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_overrides())
def test_accepted_config_runs_to_a_verdict(tmp_path, drawn):
    """A config the rules accept never ends in a usage error or a traceback."""
    name, overrides = drawn
    try:
        cfg = config_from_mapping(name, overrides)
    except ConfigError:
        return
    report = run_experiment(cfg)  # no ValueError or TypeError escapes
    assert isinstance(report.passed, bool)
    flags = [arg for key, val in cfg.as_dict().items() if key != "name"
             for arg in (f"--{key.replace('_', '-')}", _spelled(val))]
    assert main([name, *flags, "--out", str(tmp_path), "--stem", "h", "--quiet"]) in (0, 1)

