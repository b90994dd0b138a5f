"""tools/compare_reports.py: a checkout against itself, and what a difference prints."""

import importlib.util
import json
import pathlib
import subprocess
import sys

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


def test_differences_are_named_with_their_largest_relative_change(tmp_path):
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
        "differs: r.records.jsonl (largest relative change 2.000e-01 at line 1: errors[1])",
    ]


def test_a_value_turned_null_is_an_infinite_change():
    change, where = compare_reports.largest_relative_change('{"x": 1.0}', '{"x": null}', False)
    assert change == float("inf") and where == "x"
