"""Compare the reports two bosp checkouts write at the experiments' default configs.

    python tools/compare_reports.py PARENT CHANGE [--seeds 0,1,7] [--experiments a,b]

PARENT and CHANGE are checkout roots.  Each experiment runs once per seed
through ``python -m bosp.cli NAME --seed S``, with that checkout's ``src``
first on ``PYTHONPATH`` and every other setting at its default.  Every file
a run writes (summary, records, ``.dat`` series, ``.bosp`` checkpoint) is
compared byte for byte with the other checkout's, and so is each run's exit
code.  Each run of ``EXTRA_RUNS`` whose experiment is selected also runs
at every seed, under a stem of its own.  For a JSON, JSONL or ``.dat``
series file that differs, the largest relative change of any numeric field
(of a series, any number of a row) is printed, with that field's absolute
change.  Exits 0 only when everything matches.

Standard library only; the experiment list is read from CHANGE's registry.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile


# Non-default runs besides each experiment's defaults: the bo gauge residual,
# the gauge-residual config the benchmark runs, and the step-halving ladders
# of conservation and convergence under the ETDRK4 scheme.
EXTRA_RUNS = [
    ("gauge-residual", ("--variant", "bo")),
    ("gauge-residual", ("--k", "3", "--n-samples", "1000")),
    ("conservation", ("--scheme", "etd_rk4")),
    ("convergence", ("--scheme", "etd_rk4")),
]


def _env(checkout: pathlib.Path) -> dict:
    paths = [str(checkout.resolve() / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def experiment_names(checkout: pathlib.Path) -> list:
    """The registry's experiment names, as the checkout's own code lists them."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from bosp.experiments import EXPERIMENT_NAMES; print(' '.join(EXPERIMENT_NAMES))"],
        env=_env(checkout), capture_output=True, text=True, check=True)
    return out.stdout.split()


def runs(names) -> list:
    """(experiment, extra flags, stem prefix) of each run: every experiment at its
    defaults, then each of ``EXTRA_RUNS`` whose experiment is in ``names``."""
    extra = [(name, flags, "-".join([name, *(f.lstrip("-") for f in flags)]))
             for name, flags in EXTRA_RUNS if name in names]
    return [(name, (), name) for name in names] + extra


def run_reports(checkout: pathlib.Path, names, seeds, out: pathlib.Path) -> dict:
    """Run each (run, seed) of the checkout into ``out``; returns the exit codes."""
    codes = {}
    for name, flags, prefix in runs(names):
        for seed in seeds:
            stem = f"{prefix}-seed{seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "bosp.cli", name, *flags, "--seed", str(seed),
                 "--out", str(out), "--stem", stem, "--quiet"],
                env=_env(checkout), cwd=out, capture_output=True, text=True)
            codes[stem] = proc.returncode
            if proc.stderr:
                print(f"{checkout} {stem}: {proc.stderr.strip()}", file=sys.stderr)
    return codes


def _numbers(obj, path=""):
    """(path, value) of every numeric leaf of a parsed JSON value; None counts as NaN."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _numbers(obj[key], f"{path}.{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _numbers(item, f"{path}[{i}]")
    elif obj is None or (isinstance(obj, (int, float)) and not isinstance(obj, bool)):
        yield path, math.nan if obj is None else float(obj)


def _changes(a: float, b: float) -> tuple:
    """(|a - b| / max(|a|, |b|), |a - b|); a NaN or infinity on one side only is infinite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b) / max(abs(a), abs(b)), abs(a - b)


def _series_row(text: str) -> list:
    """The numbers of one line of a ``.dat`` series (``nan`` for a null)."""
    return [float(v) for v in text.split()]


# how each compared kind of file parses: one document, or one per line
PARSERS = {".json": (False, json.loads), ".jsonl": (True, json.loads),
           ".dat": (True, _series_row)}


def largest_relative_change(text_a: str, text_b: str, lines: bool, parse=json.loads) -> tuple:
    """(largest relative change, absolute change there, its field path) between two
    texts, each one document or (``lines``) one per line, read by ``parse``:
    JSON by default.

    A field that is numeric on one side only, or a structure that differs,
    counts as an infinite change.
    """
    docs_a = [parse(t) for t in text_a.splitlines()] if lines else [parse(text_a)]
    docs_b = [parse(t) for t in text_b.splitlines()] if lines else [parse(text_b)]
    if len(docs_a) != len(docs_b):
        return math.inf, math.inf, f"line count {len(docs_a)} != {len(docs_b)}"
    worst = (0.0, 0.0, "")
    for i, (a, b) in enumerate(zip(docs_a, docs_b)):
        nums_a, nums_b = dict(_numbers(a)), dict(_numbers(b))
        for path in sorted(nums_a.keys() | nums_b.keys()):
            if path not in nums_a or path not in nums_b:
                changes = math.inf, math.inf
            else:
                changes = _changes(nums_a[path], nums_b[path])
            if changes[0] > worst[0]:
                worst = (*changes, f"line {i + 1}: {path.removeprefix('.')}" if lines
                         else path.removeprefix("."))
    return worst


def compare(dir_a: pathlib.Path, dir_b: pathlib.Path) -> list:
    """One line per difference between the files of two report directories."""
    files_a = {p.name for p in dir_a.iterdir()}
    files_b = {p.name for p in dir_b.iterdir()}
    diffs = [f"only in PARENT: {name}" for name in sorted(files_a - files_b)]
    diffs += [f"only in CHANGE: {name}" for name in sorted(files_b - files_a)]
    for name in sorted(files_a & files_b):
        a, b = (dir_a / name).read_bytes(), (dir_b / name).read_bytes()
        if a == b:
            continue
        line = f"differs: {name}"
        parser = PARSERS.get(pathlib.Path(name).suffix)
        if parser:
            relative, absolute, where = largest_relative_change(a.decode(), b.decode(), *parser)
            line += (f" (largest relative change {relative:.3e}, absolute {absolute:.3e}, "
                     f"at {where})")
        diffs.append(line)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout root of the parent")
    parser.add_argument("change", type=pathlib.Path, help="checkout root of the change")
    parser.add_argument("--seeds", default="0,1,7", help="comma-separated seeds (default 0,1,7)")
    parser.add_argument("--experiments", default="",
                        help="comma-separated experiment names (default: all)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    names = ([n for n in args.experiments.split(",") if n]
             or experiment_names(args.change))
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        dirs = {side: pathlib.Path(tmp) / side for side in ("parent", "change")}
        codes = {}
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            dirs[side].mkdir()
            codes[side] = run_reports(checkout, names, seeds, dirs[side])
        diffs = [f"exit code of {stem}: {codes['parent'][stem]} != {codes['change'][stem]}"
                 for stem in codes["parent"] if codes["parent"][stem] != codes["change"][stem]]
        diffs += compare(dirs["parent"], dirs["change"])
        files = sum(1 for _ in dirs["change"].iterdir())
    nonzero = sorted(stem for stem, code in codes["change"].items() if code)
    for line in diffs:
        print(line)
    print(f"{len(codes['change'])} runs per checkout, {files} files compared: "
          + ("identical" if not diffs else f"{len(diffs)} differences")
          + (f"; nonzero exit in CHANGE: {', '.join(nonzero)}" if nonzero else ""))
    return 0 if not diffs else 1


if __name__ == "__main__":
    sys.exit(main())
