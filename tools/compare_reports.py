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
change; where no numeric field differs, the first differing string or bool
(a ``failures`` text, a ``passed`` flag) is printed with both values, and
where no field differs at all, that every field parses equal.
Exits 0 only when everything matches, and 2, before any run, when
``--seeds`` lists no seed or ``--experiments`` names an experiment that
CHANGE's registry does not hold.

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
# the gauge-residual config the benchmark runs, the step-halving ladders of
# conservation and convergence under the ETDRK4 scheme, and the benchmark's
# n = 2048 ETDRK4 two-thirds simulate (perfbench/simulate_fields.ini, whose dt
# and t_final are simulate's defaults), the one single-row solve of that
# scheme and rule, with its 16.4 MB checkpoint.
EXTRA_RUNS = [
    ("gauge-residual", ("--variant", "bo")),
    ("gauge-residual", ("--k", "3", "--n-samples", "1000")),
    ("conservation", ("--scheme", "etd_rk4")),
    ("convergence", ("--scheme", "etd_rk4")),
    ("simulate", ("--n", "2048", "--scheme", "etd_rk4", "--dealias", "two_thirds",
                  "--sample-stride", "1")),
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


def _leaves(obj, path=""):
    """(path, value) of every leaf of a parsed JSON value, keys in sorted order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _numeric(value) -> bool:
    """A number or null (a non-finite number), not a bool."""
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool))


def _numbers(obj) -> dict:
    """{path: value} of every numeric leaf of a parsed JSON value; None counts as NaN."""
    return {path: math.nan if value is None else float(value)
            for path, value in _leaves(obj) if _numeric(value)}


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


def _documents(text_a: str, text_b: str, lines: bool, parse) -> tuple:
    """The parsed documents of two texts, each one document or (``lines``) one per line."""
    if lines:
        return [parse(t) for t in text_a.splitlines()], [parse(t) for t in text_b.splitlines()]
    return [parse(text_a)], [parse(text_b)]


def _where(lines: bool, i: int, path: str) -> str:
    return f"line {i + 1}: {path.removeprefix('.')}" if lines else path.removeprefix(".")


def largest_relative_change(text_a: str, text_b: str, lines: bool, parse=json.loads) -> tuple:
    """(largest relative change, absolute change there, its field path) between two
    texts, each one document or (``lines``) one per line, read by ``parse``:
    JSON by default.

    A field that is numeric on one side only, or a structure that differs,
    counts as an infinite change.
    """
    docs_a, docs_b = _documents(text_a, text_b, lines, parse)
    if len(docs_a) != len(docs_b):
        return math.inf, math.inf, f"line count {len(docs_a)} != {len(docs_b)}"
    worst = (0.0, 0.0, "")
    for i, (a, b) in enumerate(zip(docs_a, docs_b)):
        nums_a, nums_b = _numbers(a), _numbers(b)
        for path in sorted(nums_a.keys() | nums_b.keys()):
            if path not in nums_a or path not in nums_b:
                changes = math.inf, math.inf
            else:
                changes = _changes(nums_a[path], nums_b[path])
            if changes[0] > worst[0]:
                worst = (*changes, _where(lines, i, path))
    return worst


def first_other_change(text_a: str, text_b: str, lines: bool, parse=json.loads):
    """(field path, value in a, value in b) of the first non-numeric field, a string
    or a bool, whose values differ between two texts of as many documents, or
    None when none does.  A field one side lacks reads ``<absent>`` there."""
    for i, (a, b) in enumerate(zip(*_documents(text_a, text_b, lines, parse))):
        leaves_a, leaves_b = dict(_leaves(a)), dict(_leaves(b))
        for path in sorted(leaves_a.keys() | leaves_b.keys()):
            value_a = leaves_a.get(path, "<absent>")
            value_b = leaves_b.get(path, "<absent>")
            if value_a != value_b and not (_numeric(value_a) and _numeric(value_b)):
                return _where(lines, i, path), value_a, value_b
    return None


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
            other = None if relative else first_other_change(a.decode(), b.decode(), *parser)
            if relative:
                line += (f" (largest relative change {relative:.3e}, absolute {absolute:.3e}, "
                         f"at {where})")
            elif other:
                line += " (no numeric change; {} {!r} != {!r})".format(*other)
            else:
                line += " (every field parses equal)"
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
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if not seeds:
        parser.error(f"--seeds {args.seeds!r} lists no seed")
    known = experiment_names(args.change)
    names = [n for n in args.experiments.split(",") if n] or known
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"--experiments: unknown experiment {', '.join(map(repr, unknown))} "
                     f"in CHANGE's registry; known: {', '.join(known)}")
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
