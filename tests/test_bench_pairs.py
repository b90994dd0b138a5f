"""tools/bench_pairs.py: the summary of canned results, and the alternating order of runs."""

import importlib.util
import json
import pathlib

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
        "change better in 3 of 5 pairs",
        "ok_ratio (ratio, higher is better): parent 1 [1, 1]  change 1 [1, 1]  "
        "change better in 0 of 5 pairs",
    ]


def test_one_pair_is_its_own_quartiles():
    assert bench_pairs.summarize([_pair(0.3, 0.2)], METRICS[:1]) == [
        "wall_s (s, lower is better): parent 0.3 [0.3, 0.3]  change 0.2 [0.2, 0.2]  "
        "change better in 1 of 1 pairs"]


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
                       "change 0.2 [0.2, 0.2]  change better in 3 of 3 pairs")


def test_a_run_without_a_result_fails(tmp_path, capsys):
    log = tmp_path / "order.log"
    _fake_checkout(tmp_path / "parent", 0.25, log)
    (tmp_path / "change").mkdir()
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "solve-long", "--pairs", "1"]) == 1
    assert "error: " in capsys.readouterr().err
