"""tools/compare_reports.py: a checkout against itself, and what a difference prints."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_reports.py"

_spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def test_checkout_matches_itself():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seeds", "0",
                           "--experiments", "scaling"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "1 runs per checkout, 2 files compared: identical"


@pytest.mark.parametrize("flags, message", [
    (["--seeds="], "--seeds '' lists no seed"),
    (["--seeds", "0,x"], "--seeds must be comma-separated integers, got '0,x'"),
    (["--experiments", "scaling,nope"], "--experiments: unknown experiment 'nope' in CHANGE's "
                                        "registry"),
])
def test_an_empty_or_unknown_selection_is_a_usage_error_before_any_run(
        capsys, monkeypatch, flags, message):
    monkeypatch.setattr(compare_reports, "run_reports",
                        lambda *args: pytest.fail("an experiment ran"))
    with pytest.raises(SystemExit) as exc:
        compare_reports.main([str(ROOT), str(ROOT), *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {message}" in err


def test_differences_are_named_with_their_largest_relative_and_absolute_change(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    rec = {"sample_index": 0, "ratio": 2.0, "errors": [1.0, 4.0], "blew_up": False}
    (a / "r.records.jsonl").write_text(json.dumps(rec) + "\n")
    (b / "r.records.jsonl").write_text(json.dumps(dict(rec, errors=[1.0, 5.0])) + "\n")
    for d in (a, b):
        (d / "r.bosp").write_bytes(bytes(d.name, "ascii"))
    (a / "only.dat").write_text("")
    assert compare_reports.compare(a, b) == [
        "only in PARENT: only.dat",
        "differs: r.bosp",
        "differs: r.records.jsonl (largest relative change 2.000e-01, absolute 1.000e+00, "
        "at line 1: errors[1])",
    ]


def test_a_dat_series_that_differs_names_its_largest_change(tmp_path):
    # two-column series as save_report writes them, a null as nan
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "r.drift.dat").write_text("0 1e-12\n0.5 4e-12\n1 nan\n")
    (b / "r.drift.dat").write_text("0 1e-12\n0.5 5e-12\n1 nan\n")
    assert compare_reports.compare(a, b) == [
        "differs: r.drift.dat (largest relative change 2.000e-01, absolute 1.000e-12, "
        "at line 2: [1])"]
    assert compare_reports.largest_relative_change("0 1\n", "0 1\n1 2\n",
                                                   *compare_reports.PARSERS[".dat"]) == (
        float("inf"), float("inf"), "line count 1 != 2")


def test_absolute_change_is_read_at_the_largest_relative_change():
    # the ratio moves least relatively but most absolutely: the line reports
    # the drift's field, with the drift's own absolute change
    a = {"ratio": 1000.0, "drift": 5.2349e-13}
    b = {"ratio": 1000.1, "drift": 5.2327e-13}
    relative, absolute, where = compare_reports.largest_relative_change(
        json.dumps(a), json.dumps(b), False)
    assert where == "drift"
    assert relative == abs(a["drift"] - b["drift"]) / a["drift"]
    assert absolute == abs(a["drift"] - b["drift"])


def test_a_value_turned_null_is_an_infinite_change():
    changes = compare_reports.largest_relative_change('{"x": 1.0}', '{"x": null}', False)
    assert changes == (float("inf"), float("inf"), "x")


def test_line_count_change_is_infinite():
    assert compare_reports.largest_relative_change("{}\n{}", "{}", True) == (
        float("inf"), float("inf"), "line count 2 != 1")


def test_extra_runs_have_stems_of_their_own():
    runs = compare_reports.runs(["scaling", "gauge-residual"])
    assert runs == [
        ("scaling", (), "scaling"),
        ("gauge-residual", (), "gauge-residual"),
        ("gauge-residual", ("--variant", "bo"), "gauge-residual-variant-bo"),
        ("gauge-residual", ("--k", "3", "--n-samples", "1000"),
         "gauge-residual-k-3-n-samples-1000"),
    ]
    assert compare_reports.runs(["scaling"]) == [("scaling", (), "scaling")]
    # the ETDRK4 branch of the stacked step-halving ladders
    assert compare_reports.runs(["conservation", "convergence"])[2:] == [
        ("conservation", ("--scheme", "etd_rk4"), "conservation-scheme-etd_rk4"),
        ("convergence", ("--scheme", "etd_rk4"), "convergence-scheme-etd_rk4"),
    ]
    # the benchmark's single-row n = 2048 ETDRK4 two-thirds solve
    assert compare_reports.runs(["simulate"]) == [
        ("simulate", (), "simulate"),
        ("simulate", ("--n", "2048", "--scheme", "etd_rk4", "--dealias", "two_thirds",
                      "--sample-stride", "1"),
         "simulate-n-2048-scheme-etd_rk4-dealias-two_thirds-sample-stride-1"),
    ]


def test_a_change_in_strings_or_bools_alone_names_the_first_such_field(tmp_path):
    # no numeric field differs: the first differing string or bool is named
    # with both values, and a change of layout alone says every field is equal
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    summary = {"passed": False, "failures": ["ratio = 2.5 is not < variation_max = 2.0"],
               "n_records": 3}
    (a / "s.summary.json").write_text(json.dumps(summary, indent=2))
    (b / "s.summary.json").write_text(json.dumps(dict(summary, failures=["other"]), indent=2))
    (a / "t.summary.json").write_text(json.dumps(summary))
    (b / "t.summary.json").write_text(json.dumps(summary, indent=2))
    (a / "r.records.jsonl").write_text('{"ratio": 1.0, "blew_up": false}\n{"ratio": 2.0}\n')
    (b / "r.records.jsonl").write_text('{"ratio": 1.0, "blew_up": true}\n{"ratio": 2.0}\n')
    assert compare_reports.compare(a, b) == [
        "differs: r.records.jsonl (no numeric change; line 1: blew_up False != True)",
        "differs: s.summary.json (no numeric change; failures[0] "
        "'ratio = 2.5 is not < variation_max = 2.0' != 'other')",
        "differs: t.summary.json (every field parses equal)",
    ]
    # a field one side lacks, and a numeric change, which is reported as before
    assert compare_reports.first_other_change('{"x": 1}', '{"x": 1, "degenerate": true}',
                                              False) == ("degenerate", "<absent>", True)
    assert compare_reports.first_other_change('{"x": 1}', '{"x": 1}', False) is None
