"""tools/bench_pairs.py: the summary of canned results, and the alternating order of runs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("wall_s", "s", "lower"), ("ok_ratio", "ratio", "higher")]


def _pair(parent_wall, change_wall, change_ok=1.0):
    return {"parent": {"wall_s": parent_wall, "ok_ratio": 1.0},
            "change": {"wall_s": change_wall, "ok_ratio": change_ok}}


def test_summary_gives_each_side_median_and_quartiles_and_the_pairs_won():
    pairs = [_pair(0.25, 0.22), _pair(0.24, 0.23), _pair(0.26, 0.27), _pair(0.25, 0.21, 0.5),
             _pair(0.23, 0.23)]
    assert bench_pairs.summarize(pairs, METRICS) == [
        "wall_s (s, lower is better): parent 0.25 [0.24, 0.25]  change 0.23 [0.22, 0.23]  "
        "parent IQR 4% of median  change better in 3 of 5 pairs: unresolved",
        "ok_ratio (ratio, higher is better): parent 1 [1, 1]  change 1 [1, 1]  "
        "parent IQR 0% of median  change better in 0 of 5 pairs: unresolved",
    ]


def test_one_pair_is_its_own_quartiles():
    assert bench_pairs.summarize([_pair(0.3, 0.2)], METRICS[:1]) == [
        "wall_s (s, lower is better): parent 0.3 [0.3, 0.3]  change 0.2 [0.2, 0.2]  "
        "parent IQR 0% of median  change better in 1 of 1 pairs: unresolved"]


PARENT_WALL = [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.37, 0.38, 0.39]  # IQR 0.045


@pytest.mark.parametrize("change, want", [
    # better in 10 of 10, medians 0.1 apart
    ([w - 0.1 for w in PARENT_WALL], "gain"),
    # better in 9 of 10 still counts
    ([w - 0.1 for w in PARENT_WALL[:9]] + [0.40], "gain"),
    # better in 8 of 10 does not
    ([w - 0.1 for w in PARENT_WALL[:8]] + [0.40, 0.40], "unresolved"),
    # better in 10 of 10, but the medians 0.04 apart are within the parent's IQR
    ([w - 0.04 for w in PARENT_WALL], "unresolved"),
    ([w + 0.1 for w in PARENT_WALL], "regression"),
    ([w + 0.1 for w in PARENT_WALL[1:]] + [0.29], "regression"),
    ([w + 0.04 for w in PARENT_WALL], "unresolved"),
])
def test_verdict_by_pairs_won_and_median_gap_past_the_parents_iqr(change, want):
    pairs = [_pair(p, c) for p, c in zip(PARENT_WALL, change)]
    line = bench_pairs.summarize(pairs, METRICS[:1])[0]
    assert line.endswith(f"pairs: {want}")
    assert bench_pairs.verdict(PARENT_WALL, change, -1.0) == want


def test_the_parents_iqr_is_printed_as_a_share_of_its_median():
    # IQR 0.045 of a median 0.345: the verdict calls no median move under 13%
    pairs = [_pair(p, p - 0.04) for p in PARENT_WALL]
    assert "parent IQR 13% of median" in bench_pairs.summarize(pairs, METRICS[:1])[0]
    zero = [{side: {"wall_s": 0.0} for side in bench_pairs.SIDES}] * 3
    assert "parent IQR n/a of median" in bench_pairs.summarize(zero, METRICS[:1])[0]


def test_verdict_follows_the_better_direction_and_needs_ten_pairs():
    # ok_ratio: higher is better, so a drop in every pair is a regression
    assert bench_pairs.verdict([1.0, 1.0] * 5, [0.5] * 10, 1.0) == "regression"
    assert bench_pairs.verdict([0.5] * 10, [1.0] * 10, 1.0) == "gain"
    assert bench_pairs.verdict([1.0] * 10, [1.0] * 10, 1.0) == "unresolved"
    # nine pairs, every one better by far: too few to tell
    assert bench_pairs.verdict(PARENT_WALL[:9], [0.1] * 9, -1.0) == "unresolved"


def test_end_to_end_metrics_are_read_from_the_benchmark():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.end_to_end(ROOT) == [(m["name"], m["unit"], m["better"])
                                           for m in declared]


def _fake_checkout(root, wall, log):
    """A checkout whose benchmark logs its side and prints one canned result."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": n, "unit": u, "better": b} for n, u, b in METRICS]}))
    result = {"metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "ok_ratio": {"value": 1.0, "unit": "ratio"}}}
    (root / "perfbench" / "run.py").write_text(
        f"with open({str(log)!r}, 'a') as f:\n    f.write({root.name!r} + '\\n')\n"
        f"print('env {{}}')\nprint({json.dumps(json.dumps(result))})\n")


def test_runs_alternate_and_the_summary_is_printed(tmp_path, capsys):
    log = tmp_path / "order.log"
    _fake_checkout(tmp_path / "parent", 0.25, log)
    _fake_checkout(tmp_path / "change", 0.2, log)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "solve-long", "--pairs", "3"]) == 0
    assert log.read_text().split() == ["parent", "change", "change", "parent", "parent",
                                       "change"]
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == ("wall_s (s, lower is better): parent 0.25 [0.25, 0.25]  "
                       "change 0.2 [0.2, 0.2]  parent IQR 0% of median  "
                       "change better in 3 of 3 pairs: unresolved")


def test_a_run_without_a_result_fails(tmp_path, capsys):
    log = tmp_path / "order.log"
    _fake_checkout(tmp_path / "parent", 0.25, log)
    (tmp_path / "change").mkdir()
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "solve-long", "--pairs", "1"]) == 1
    assert "error: " in capsys.readouterr().err
