"""tools/seed_sweep.py: each gate's per-seed values, worst seed and failing seeds."""

import importlib.util
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "seed_sweep.py"

_spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)

# strichartz-scan on a tiny config: 4 draws of 6 modes on 3 circles of n = 32
TINY = {"n": "32", "n_samples": "4", "n_modes": "6", "lambdas": "1.0,2.0,4.0"}
SEEDS = [0, 1, 2, 3]


def test_seeds_are_listed_and_ranges_inclusive():
    assert seed_sweep.parse_seeds("0-3,7,10-11") == [0, 1, 2, 3, 7, 10, 11]


def test_a_bound_one_seed_breaks_is_reported_at_that_seed(capsys):
    gates, structural = seed_sweep.sweep("strichartz-scan", SEEDS, TINY)
    assert structural == []
    assert set(gates) == {"ratio", "slope"}
    wording, rows = gates["ratio"]
    assert wording == "< variation_max = 2.0"
    assert [seed for seed, *_ in rows] == SEEDS
    assert not any(failed for *_, failed in rows)
    # a bound between the two largest variations fails the largest one's seed alone
    (second, _), (top, chosen) = sorted((value, seed) for seed, value, _, _ in rows)[-2:]
    assert second < top
    flags = ["--experiments", "strichartz-scan", "--seeds", "0-3",
             *(arg for key, value in TINY.items() for arg in ("--set", f"{key}={value}")),
             "--set", f"variation_max={(second + top) / 2!r}"]
    assert seed_sweep.main(flags) == 1
    lines = capsys.readouterr().out.splitlines()
    line = next(line for line in lines if "variation_max" in line)
    assert line.startswith(f"strichartz-scan: ratio < variation_max = {(second + top) / 2!r}: "
                           f"worst {top!r} at seed {chosen};")
    assert line.endswith(f"fails at 1 of 4 seeds: {chosen}")
    slope = next(line for line in lines if "slope_max" in line)
    assert slope.endswith("fails at 0 of 4 seeds")


def test_every_gate_passing_exits_zero(capsys):
    flags = ["--experiments", "strichartz-scan", "--seeds", "0,1",
             *(arg for key, value in TINY.items() for arg in ("--set", f"{key}={value}"))]
    assert seed_sweep.main(flags) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.endswith("fails at 0 of 2 seeds") for line in lines)


# one gate of each sense on a small config: experiment, gate, the bound key
# moved, and the settings
SENSES = [
    ("strichartz-scan", "ratio", "variation_max", "<", TINY),
    ("flowmap", "ratio", "ratio_bound", "<=", {"n_samples": "2"}),
    ("gauge-residual", "shrink", "shrink_min", ">=", {"n_samples": "2", "shrink_samples": "1"}),
    ("convergence", "gbo1_cos: order", "order_min", "in", {}),
]


@pytest.mark.parametrize("name, gate, key, sense, settings", SENSES,
                         ids=[sense for *_, sense, _ in SENSES])
def test_a_bound_one_float_past_the_value_prints_as_the_verdict_words_it(
        capsys, name, gate, key, sense, settings):
    """The sweep's bound and worst value print exactly, and a bound one float
    past the value fails the sweep and the verdict alike, in the same words."""
    from bosp.experiments import config_from_mapping, run_experiment

    _, [(_, value, _, failed)] = seed_sweep.sweep(name, [0], settings)[0][gate]
    assert not failed
    # < fails at the bound itself; the others one float past it
    past = {"<": value, "<=": math.nextafter(value, -math.inf),
            ">=": math.nextafter(value, math.inf), "in": math.nextafter(value, math.inf)}[sense]
    said = f"{key} = {past!r}"
    bound = f"in [{said}, order_max = 4.2]" if sense == "in" else f"{sense} {said}"
    flags = ["--experiments", name, "--seeds", "0", "--set", f"{key}={past!r}",
             *(arg for k, v in settings.items() for arg in ("--set", f"{k}={v}"))]
    assert seed_sweep.main(flags) == 1
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith(f"{name}: {gate} ")]
    assert line.startswith(f"{name}: {gate} {bound}: worst {value!r} at seed 0;")
    assert line.endswith("fails at 1 of 1 seeds: 0")
    assert float(re.search(rf"{key} = ([^,:\]]+)", line).group(1)) == past
    report = run_experiment(config_from_mapping(name, dict(settings, **{key: past})))
    assert f"{gate} = {value!r} is not {bound}" in report.failures


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "39-0"], "--seeds 39-0 selects no seed"),
    (["--seeds", "x"], "--seeds must be seeds and ranges a-b, comma-separated, got 'x'"),
    (["--experiments", "strichartz-scan,nope"], "--experiments: unknown experiment 'nope'"),
])
def test_an_empty_or_unknown_selection_is_a_usage_error_before_any_run(
        capsys, monkeypatch, flags, message):
    monkeypatch.setattr(seed_sweep, "sweep", lambda *args: pytest.fail("an experiment ran"))
    with pytest.raises(SystemExit) as exc:
        seed_sweep.main(flags)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {message}" in err


def test_seeded_names_the_experiments_whose_records_the_seed_moves():
    """``SEEDED`` copies a fact the experiments hold: at their defaults, seeds
    0 and 1 give different records for exactly these experiments."""
    from bosp import experiments

    def records(name, seed):
        cfg = experiments.config_from_mapping(name, {"seed": seed})
        return experiments.run_experiment(cfg).records

    moved = [name for name in experiments.EXPERIMENT_NAMES
             if records(name, 0) != records(name, 1)]
    assert sorted(moved) == sorted(seed_sweep.SEEDED)
