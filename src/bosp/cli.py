"""Command-line front end: one subcommand per experiment.

Exit codes: 0 all checks passed, 1 any check failed, 2 usage or
configuration error.  Reports land in --out (default ./runs) as
<name>-<timestamp>-seed<seed>.summary.json / .records.jsonl plus
two-column .dat series for anything figure-worthy; the simulate
subcommand also writes the trajectory checkpoint.
"""

from __future__ import annotations

import argparse
import sys
import time

from .checkpoint import save_checkpoint
from .errors import ConfigError
from .experiments import (
    EXPERIMENT_NAMES,
    config_from_mapping,
    default_config,
    load_config_file,
    run_experiment,
    save_report,
)

_SCHEMES = {"ifrk4": "if_rk4", "etdrk4": "etd_rk4"}
_DEALIAS = {"two-thirds": "two_thirds", "pad4": "pad4", "none": "none"}

# (flag, config key, type, help); a subcommand has the flag only when its
# experiment reads the key
_COMMON_OVERRIDES = [
    ("--lambda", "lam", float, "circle size parameter"),
    ("--n", "n", int, "collocation points"),
    ("--k", "k", int, "nonlinearity degree"),
    ("--dt", "dt", float, "time step"),
    ("--t-final", "t_final", float, "integration horizon"),
    ("--n-samples", "n_samples", int, "ensemble size"),
    ("--amplitude", "amplitude", float, "ensemble normalization"),
    ("--n-modes", "n_modes", int, "modes per random draw"),
    ("--gamma", "gamma", float, "mean value of the initial data"),
    ("--perturbation", "perturbation", float, "pair gap (H^1)"),
    ("--equation", "equation", str, "equation tag"),
    ("--variant", "variant", str, "bo or gbo"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosp", description="run named experiments and write reports")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENT_NAMES:
        keys = default_config(name).as_dict()
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--out", metavar="DIR", default="runs",
                       help="report directory (default: ./runs)")
        p.add_argument("--seed", type=int, metavar="U64", help="ensemble seed")
        p.add_argument("--quiet", action="store_true", help="suppress output")
        p.add_argument("--stem", help="output file stem (default: name-timestamp-seed)")
        if "scheme" in keys:
            p.add_argument("--scheme", choices=sorted(_SCHEMES),
                           help="time integrator")
        if "dealias" in keys:
            p.add_argument("--dealias", choices=sorted(_DEALIAS),
                           help="dealiasing rule")
        for flag, key, typ, helptext in _COMMON_OVERRIDES:
            if key in keys:
                p.add_argument(flag, dest=f"cfg_{key}", type=typ, help=helptext)
    return parser


def _collect_overrides(args) -> dict:
    overrides = {}
    if args.config:
        overrides.update(load_config_file(args.config, args.experiment))
    for _, key, _, _ in _COMMON_OVERRIDES:
        val = getattr(args, f"cfg_{key}", None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "scheme", None) is not None:
        overrides["scheme"] = _SCHEMES[args.scheme]
    if getattr(args, "dealias", None) is not None:
        overrides["dealias"] = _DEALIAS[args.dealias]
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _collect_overrides(args)
        cfg = config_from_mapping(args.experiment, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(cfg)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stem = args.stem or f"{cfg.name}-{time.strftime('%Y%m%dT%H%M%S')}-seed{cfg.seed}"
    paths = save_report(report, args.out, stem)
    if "trajectory" in report.artifacts:
        ckpt = f"{paths['summary'].with_suffix('').with_suffix('')}.bosp"
        save_checkpoint(report.artifacts["trajectory"], ckpt)
        paths["checkpoint"] = ckpt

    if not args.quiet:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"[{verdict}] {cfg.name} (seed {cfg.seed}, {len(report.records)} records, "
              f"{report.wall_time_s:.1f}s)")
        for failure in report.failures:
            print(f"  - {failure}")
        print(f"  summary: {paths['summary']}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
