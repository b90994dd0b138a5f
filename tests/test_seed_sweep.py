"""tools/seed_sweep.py: each gate's per-seed values, worst seed and failing seeds."""

import importlib.util
import pathlib

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
    sense, bound_key, bound, rows = gates["ratio"]
    assert (sense, bound_key, bound) == ("<", "variation_max", 2.0)
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
    assert f"worst {top:.6g} at seed {chosen};" in line
    assert line.endswith(f"fails at 1 of 4 seeds: {chosen}")
    slope = next(line for line in lines if "slope_max" in line)
    assert slope.endswith("fails at 0 of 4 seeds")


def test_every_gate_passing_exits_zero(capsys):
    flags = ["--experiments", "strichartz-scan", "--seeds", "0,1",
             *(arg for key, value in TINY.items() for arg in ("--set", f"{key}={value}"))]
    assert seed_sweep.main(flags) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.endswith("fails at 0 of 2 seeds") for line in lines)
