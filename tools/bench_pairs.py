"""Compare two bosp checkouts on one benchmark workload over alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S] [--seed K]

PARENT and CHANGE are checkout roots.  Each pair runs both checkouts' own
``perfbench/run.py --workload W --seed K --seconds S --trace 0``, one after
the other, from the checkout's root; the order alternates from pair to pair
(PARENT first in the even pairs, CHANGE first in the odd ones), so a drift
of the machine's speed falls on both sides alike.  Each run's last stdout
line is its result object.  For each end-to-end metric that CHANGE's
``BENCHMARK.json`` declares, it prints the median [q1, q3] over the pairs
of each side and in how many pairs CHANGE was better (in the metric's
``better`` direction; a tie counts for neither side).  Exits 0 when every
run gave a result, 1 when one did not (its output is printed).

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def end_to_end(checkout: pathlib.Path) -> list:
    """The (name, unit, better) of each end-to-end metric of the checkout's benchmark."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]]


def run_once(checkout: pathlib.Path, workload: str, seconds: float, seed: int) -> dict:
    """One run of the checkout's benchmark: its metrics, name -> value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values, interpolating between them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list, metrics: list) -> list:
    """One line per metric of ``metrics`` ((name, unit, better) each) over
    ``pairs``, a list of {"parent": metrics, "change": metrics} dicts."""
    lines = []
    for name, unit, better in metrics:
        sides = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        stats = []
        for side in SIDES:
            q1, med, q3 = quartiles(sides[side])
            stats.append(f"{side} {med:.6g} [{q1:.6g}, {q3:.6g}]")
        lines.append(f"{name} ({unit}, {better} is better): {'  '.join(stats)}  "
                     f"change better in {won} of {len(pairs)} pairs")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=pathlib.Path)
    p.add_argument("change", type=pathlib.Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pairs.append({side: run_once(checkouts[side], args.workload, args.seconds,
                                         args.seed) for side in order})
            print(f"pair {i + 1}: " + "  ".join(
                f"{side} wall_s {pairs[-1][side]['wall_s']:.4f}"
                for side in order), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summarize(pairs, end_to_end(checkouts["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
