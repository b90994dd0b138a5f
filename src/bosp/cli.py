"""Command-line front end: one subcommand per experiment.

Besides ``--config``, ``--out``, ``--quiet`` and ``--stem``, a subcommand
has one flag per config key of its experiment, ``seed`` included, named
after the key with ``-`` for ``_`` (``--t-final``, ``--lam``).  The flags
lie over the config file's section, and ``config_from_mapping`` parses both
alike, so a value is spelled as in a file (``--scheme etd_rk4``,
``--lambdas 1,2,4``).  ``bosp <name> --help`` prints each key's rule from
the experiments' rule table beside its default.  Abbreviated flags are
refused.

Exit codes: 0 all checks passed, 1 any check failed, 2 usage or
configuration error; a value that breaks a config rule is refused before
the experiment runs.  An ``--out`` directory that cannot be created and a
``--stem`` with a directory part are usage errors found before the
experiment runs; a ``ValueError``, ``TypeError`` or ``OSError`` raised
while running or writing the report or checkpoint exits 2 as well.
Reports land in --out (default ./runs) as
<name>-<timestamp>-seed<seed>.summary.json / .records.jsonl plus
two-column .dat series for anything figure-worthy; the simulate
subcommand also writes the trajectory checkpoint.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .checkpoint import save_checkpoint
from .errors import ConfigError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    _key_help,
    config_from_mapping,
    load_config_file,
    run_experiment,
    save_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosp", description="run named experiments and write reports")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENT_NAMES:
        p = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--out", metavar="DIR", default="runs",
                       help="report directory (default: ./runs)")
        p.add_argument("--quiet", action="store_true", help="suppress output")
        p.add_argument("--stem", help="output file stem (default: name-timestamp-seed)")
        for key, text in _key_help(name).items():
            p.add_argument(f"--{key.replace('_', '-')}", metavar="VALUE", help=text)
    return parser


def _config(args) -> ExperimentConfig:
    """The config file's section with the flags that were given laid on top."""
    mapping = load_config_file(args.config, args.experiment) if args.config else {}
    mapping.update({key: getattr(args, key) for key in _key_help(args.experiment)
                    if getattr(args, key) is not None})
    return config_from_mapping(args.experiment, mapping)


def _prepare_output(args, cfg: ExperimentConfig) -> str:
    """Create the ``--out`` directory and return the file stem, before anything runs.

    A stem is a file name: one with a directory part is refused.
    """
    stem = args.stem or f"{cfg.name}-{time.strftime('%Y%m%dT%H%M%S')}-seed{cfg.seed}"
    if pathlib.PurePath(stem).name != stem:
        raise ConfigError(f"--stem must be a file name without a directory part, "
                          f"got {stem!r}")
    try:
        pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {args.out!r}: {exc}") from exc
    return stem


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        stem = _prepare_output(args, cfg)
        report = run_experiment(cfg)
        paths = save_report(report, args.out, stem)
        if "trajectory" in report.artifacts:
            ckpt = f"{paths['summary'].with_suffix('').with_suffix('')}.bosp"
            save_checkpoint(report.artifacts["trajectory"], ckpt)
            paths["checkpoint"] = ckpt
    except (ValueError, TypeError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
