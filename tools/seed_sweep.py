"""Run the seeded experiments over many seeds and print how near each gate comes to failing.

    python tools/seed_sweep.py [--seeds 0-39] [--experiments a,b] [--set key=value ...]

For each experiment (by default the seeded ones, ``SEEDED``) and each seed,
it builds the experiment's config at that seed (every other key at its
default, or as ``--set`` gives it), runs it in process through the
registry's ``run`` and reads the ``_Gate`` rows of its ``verdict``.  Gates
are told apart by name, which within one verdict fixes the sense and bound
key; where one verdict has several rows of a gate, the worst counts for
that seed: the value nearest to failing its bound, a non-finite value
first, or for a gate without a bound the largest in magnitude.  Per gate it
prints its name, the bound, the worst value over the seeds and its seed,
the quantiles (min, q1, median, q3, max) of the per-seed values, and the
seeds at which the gate fails, as the verdict judges it.  ``--seeds`` takes seeds and inclusive ranges,
comma-separated (``0-499``, ``0,1,7``); ``--set`` applies to every
experiment run.  Exits 0 when every gate passes at every seed, 1 when one
fails.

Standard library and bosp only (this checkout's ``src`` first on
``sys.path``); it changes no gate.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the experiments whose records depend on the seed
SEEDED = ("gauge-residual", "strichartz-scan", "flowmap", "estimate-monitor", "bernstein")


def parse_seeds(spec: str) -> list:
    """Seeds from comma-separated seeds and inclusive ranges ``a-b``."""
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def _margin(value, sense: str, bound) -> float:
    """How far ``value`` is from failing its bound: negative past it, -inf when
    not finite; for a gate without a bound, minus its magnitude."""
    if value is None or not math.isfinite(value):
        return -math.inf
    if sense in ("<", "<="):
        return bound - value
    if sense == ">=":
        return value - bound
    if sense == "in":
        return min(value - bound[0], bound[1] - value)
    return -abs(value)


def sweep(name: str, seeds: list, overrides: dict) -> tuple:
    """The experiment over ``seeds``: per gate name its sense, bound key,
    bound's value and a list of (seed, worst value, its margin, failed), and
    the (seed, message) of each structural failure."""
    from bosp import experiments

    entry, gates, structural = experiments._EXPERIMENTS[name], {}, []
    for seed in seeds:
        cfg = experiments.config_from_mapping(name, dict(overrides, seed=seed))
        fails, rows = entry.verdict(cfg, experiments.run_experiment(cfg).records)
        structural += [(seed, message) for message in fails]
        at_seed = {}
        for gate in rows:
            bound = (None if not gate.sense else
                     tuple(getattr(cfg, key) for key in gate.bound) if gate.sense == "in"
                     else getattr(cfg, gate.bound))
            value = None if gate.value is None else float(gate.value)
            failed = bool(experiments._judge([], [gate], cfg))
            at_seed.setdefault(gate.name, (gate.sense, gate.bound, bound, []))[3].append(
                (_margin(value, gate.sense, bound), value, failed))
        for gate, (sense, bound_key, bound, found) in at_seed.items():
            margin, value, _ = min(found, key=lambda row: row[0])
            gates.setdefault(gate, (sense, bound_key, bound, []))[3].append(
                (seed, value, margin, any(failed for _, _, failed in found)))
    return gates, structural


def _number(value) -> str:
    return "None" if value is None else f"{value:.6g}"


def _bound_text(sense: str, bound_key, bound) -> str:
    if not sense:
        return "finite"
    if sense == "in":
        return f"in [{bound_key[0]} = {bound[0]:g}, {bound_key[1]} = {bound[1]:g}]"
    return f"{sense} {bound_key} = {bound:g}"


def summarize(name: str, gates: dict, structural: list) -> list:
    """One line per gate of ``sweep``'s result, then one per structural failure."""
    lines = []
    for gate, (sense, bound_key, bound, rows) in gates.items():
        seed, value, _, _ = min(rows, key=lambda row: row[2])
        finite = sorted(v for _, v, _, _ in rows if v is not None and math.isfinite(v))
        quantiles = ([finite[0], *statistics.quantiles(finite, n=4, method="inclusive"),
                      finite[-1]] if len(finite) > 1 else finite * 5)
        failing = [str(s) for s, _, _, failed in rows if failed]
        lines.append(
            f"{name}: {gate} {_bound_text(sense, bound_key, bound)}: worst {_number(value)} "
            f"at seed {seed}; min/q1/median/q3/max " + " ".join(f"{q:.6g}" for q in quantiles)
            + f"; fails at {len(failing)} of {len(rows)} seeds"
            + (": " + ",".join(failing) if failing else ""))
    lines += [f"{name}: seed {seed}: {message}" for seed, message in structural]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-39")
    p.add_argument("--experiments", default=",".join(SEEDED))
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    overrides = dict(item.split("=", 1) for item in args.set)
    failed = False
    for name in args.experiments.split(","):
        gates, structural = sweep(name, parse_seeds(args.seeds), overrides)
        failed = failed or bool(structural) or any(
            row[3] for *_, rows in gates.values() for row in rows)
        print("\n".join(summarize(name, gates, structural)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
