"""Run the seeded experiments over many seeds and print how near each gate comes to failing.

    python tools/seed_sweep.py [--seeds 0-39] [--experiments a,b] [--set key=value ...]

For each experiment (by default the seeded ones, ``SEEDED``) and each seed,
it builds the experiment's config at that seed (every other key at its
default, or as ``--set`` gives it), runs it in process through the
registry's ``run`` and reads the ``_Gate`` rows of its ``verdict``.  Each
row's bound, the bound's wording and its failure come from
``experiments._assess``, the place the verdict's judge reads them, so a
gate fails here exactly when it fails the verdict.  Gates are told apart
by name, which within one verdict fixes the sense and bound key; where one
verdict has several rows of a gate, the worst counts for that seed: the
value nearest to failing its bound, a non-finite value first, or for a gate
without a bound the largest in magnitude.  Per gate it prints its name and
bound as the verdict words them (``ratio < variation_max = 2.0``), the worst
value over the seeds, exactly (``repr``), and its seed, the quantiles (min,
q1, median, q3, max) of the per-seed values, and the seeds at which the
gate fails.  ``--seeds`` takes seeds and inclusive ranges, comma-separated
(``0-499``, ``0,1,7``); ``--set`` applies to every experiment run.  Exits 0
when every gate passes at every seed, 1 when one fails, and 2, before any
run, when ``--seeds`` selects no seed or ``--experiments`` names an
experiment the registry does not hold.

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
    """The experiment over ``seeds``: per gate name its bound's wording and a
    list of (seed, worst value, its margin, failed), and the (seed, message)
    of each structural failure.  Bound, wording and failure are the
    verdict's own, from ``experiments._assess``."""
    from bosp import experiments

    entry, gates, structural = experiments._EXPERIMENTS[name], {}, []
    for seed in seeds:
        cfg = experiments.config_from_mapping(name, dict(overrides, seed=seed))
        fails, rows = entry.verdict(cfg, experiments.run_experiment(cfg).records)
        structural += [(seed, message) for message in fails]
        at_seed = {}
        for gate in rows:
            bound, wording, failure = experiments._assess(gate, cfg)
            value = None if gate.value is None else float(gate.value)
            at_seed.setdefault(gate.name, (wording, []))[1].append(
                (_margin(value, gate.sense, bound), value, bool(failure)))
        for gate, (wording, found) in at_seed.items():
            margin, value, _ = min(found, key=lambda row: row[0])
            gates.setdefault(gate, (wording, []))[1].append(
                (seed, value, margin, any(failed for _, _, failed in found)))
    return gates, structural


def summarize(name: str, gates: dict, structural: list) -> list:
    """One line per gate of ``sweep``'s result, then one per structural failure."""
    lines = []
    for gate, (wording, rows) in gates.items():
        seed, value, _, _ = min(rows, key=lambda row: row[2])
        finite = sorted(v for _, v, _, _ in rows if v is not None and math.isfinite(v))
        quantiles = ([finite[0], *statistics.quantiles(finite, n=4, method="inclusive"),
                      finite[-1]] if len(finite) > 1 else finite * 5)
        failing = [str(s) for s, _, _, failed in rows if failed]
        lines.append(
            f"{name}: {gate} {wording}: worst {value!r} "
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
    from bosp.experiments import EXPERIMENT_NAMES

    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        p.error(f"--seeds must be seeds and ranges a-b, comma-separated, got {args.seeds!r}")
    if not seeds:
        p.error(f"--seeds {args.seeds} selects no seed")
    names = args.experiments.split(",")
    unknown = [name for name in names if name not in EXPERIMENT_NAMES]
    if unknown:
        p.error(f"--experiments: unknown experiment {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(EXPERIMENT_NAMES)}")
    overrides = dict(item.split("=", 1) for item in args.set)
    failed = False
    for name in names:
        gates, structural = sweep(name, seeds, overrides)
        failed = failed or bool(structural) or any(
            row[3] for _, rows in gates.values() for row in rows)
        print("\n".join(summarize(name, gates, structural)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
