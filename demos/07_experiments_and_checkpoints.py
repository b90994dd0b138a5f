"""Config-driven experiments, reports and binary checkpoints.

The experiment layer glues everything together: a named experiment plus a
seed fully determines its records, the verdict and the summary are derived
from the records alone, and reports serialize byte-for-byte reproducibly.
The same machinery backs the `bosp` command line.
"""

import json
import tempfile
from pathlib import Path

from bosp import (config_from_mapping, load_checkpoint, recompute_passed,
                  run_experiment, save_checkpoint, save_report)
from bosp.experiments import _build_report

cfg = config_from_mapping("gauge-residual", {"n_samples": 5, "k": 2})
report = run_experiment(cfg)
print(f"experiment: {report.name}  passed={report.passed}  "
      f"({len(report.records)} records, {report.wall_time_s:.2f}s)")
print(f"worst residual: {max(r['residual_l2'] for r in report.records):.3e}")

ok, fails = recompute_passed(report)
print(f"verdict recomputed from records alone: {ok} (failures: {fails})")

with tempfile.TemporaryDirectory() as tmp:
    paths = save_report(report, tmp, "demo")
    print(f"\nwrote {sorted(p.name for p in Path(tmp).iterdir())}")

    again = save_report(run_experiment(cfg), tmp, "demo2")
    identical = paths["records"].read_bytes() == again["records"].read_bytes()
    print(f"re-run with the same (config, seed) is byte-identical: {identical}")

    # summary.json is a function of records.jsonl and the config
    records = [json.loads(line) for line in paths["records"].read_text().splitlines()]
    rebuilt = _build_report(cfg, records).summary_json().encode()
    print(f"summary rebuilt from the written records file is byte-identical: "
          f"{rebuilt == paths['summary'].read_bytes()}")

    # checkpoint round trip of a simulation
    sim = run_experiment(config_from_mapping(
        "simulate", {"dt": 1e-3, "t_final": 0.05, "sample_stride": 10}))
    traj = sim.artifacts["trajectory"]
    ck = Path(tmp) / "run.bosp"
    save_checkpoint(traj, ck)
    loaded = load_checkpoint(ck)
    print(f"checkpointed trajectory: {loaded}")
