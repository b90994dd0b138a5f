"""bosp benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-long --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run starts two fresh worker processes one after the
other (``worker.py``).  Each sets up (interpreter start, ``import bosp``, one
untimed warm-up pass) and then runs timed passes for half of ``--seconds``.
The end-to-end metrics are the median pass wall time, the median set-up
time and the share of operations that passed the correctness gate; the
failure ratio and the workers' median peak RSS are printed beside them.
With ``--trace 1`` one worker alternates untraced and traced passes and the
run reports the per-layer metrics of the traced passes and the tracing
overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give the
environment stamp and quartiles.  The full result, with every pass, is
written to ``perfbench/.work/``.  The exit code is 0 whenever a result is
printed, and nonzero when no result could be produced, for example when the
checkout has no ``src/bosp``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import THREAD_VARS, WORKLOADS

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
WORKERS_UNTRACED = 2
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    """A worker process ended without a result."""


def count_failures(ops):
    """Gate the operations of one invocation; returns the list of failures.

    An operation fails when it reports an error, or when the digests of the
    files it wrote differ from those of the first run of the same operation
    in this invocation (same workload and seed, so the bytes must repeat).
    """
    reference = {}
    failures = []
    for op in ops:
        first = reference.setdefault(op["op"], op["digests"])
        if op["error"]:
            failures.append(f"{op['op']}: {op['error']}")
        elif op["digests"] != first:
            changed = sorted(k for k in set(first) | set(op["digests"])
                             if first.get(k) != op["digests"].get(k))
            failures.append(f"{op['op']}: output bytes changed between repeats: {changed}")
    return failures


def quartiles(values):
    """(q1, median, q3) of a few samples, interpolating between them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest():
    """sha256 over the library sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bosp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment_stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def run_worker(args, index, window, deadline):
    """Start one worker, wait for it and return its parsed result."""
    out_dir = WORK / f"{args.workload}-seed{args.seed}-w{index}"
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC), **{k: "1" for k in THREAD_VARS})
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--window", repr(window), "--trace", str(args.trace),
           "--out", str(out_dir), "--spans", str(spans), "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {index} passed the {DEADLINE_S:.0f} s deadline") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end_metrics(results, attempted, failed):
    """Metrics of the untraced run, and the quartiles printed beside them."""
    passes = [p for r in results for p in r["passes"]]
    setups = [r["setup"] for r in results]
    detail = {}
    for name, samples in (("wall_s", passes), ("setup_s", setups)):
        for key in ("wall_s", "raw_wall_s"):
            q1, med, q3 = quartiles([s[key] for s in samples])
            label = name if key == "wall_s" else name.replace("_s", "_raw_s")
            detail[label] = {"median": med, "q1": q1, "q3": q3, "n": len(samples)}
    metrics = {
        "wall_s": (detail["wall_s"]["median"], "s"),
        "setup_s": (detail["setup_s"]["median"], "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, detail


def peak_rss_mb(results):
    """Median over the workers of the peak RSS of one pass's CLI calls."""
    return statistics.median(r["peak_rss_mb"] for r in results)


def per_layer_metrics(results):
    """Medians over the traced passes, and the tracing overhead."""
    passes = [p for r in results for p in r["passes"]]
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median(p["layers"][name][0] for p in traced), unit)
    metrics["process.peak_rss_mb"] = (peak_rss_mb(results), "MB")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="bosp benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _exit_on_sigterm(signum, frame):
    # Raised inside run_worker's wait, so the running worker is killed too.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "bosp" / "__init__.py").is_file():
        print(f"error: no bosp sources at {SRC / 'bosp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    stamp = environment_stamp(args)
    n_workers = 1 if args.trace else WORKERS_UNTRACED
    try:
        results = [run_worker(args, i, args.seconds / n_workers, deadline)
                   for i in range(n_workers)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stamp.update(results[0]["stamp"])

    ops = [op for r in results
           for op in r["warmup_ops"] + [o for p in r["passes"] for o in p["ops"]]]
    failures = count_failures(ops)
    attempted, failed = len(ops), len(failures)
    if args.trace:
        metrics, detail = per_layer_metrics(results), {}
    else:
        metrics, detail = end_to_end_metrics(results, attempted, failed)

    print("env " + json.dumps(stamp, sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{'fail_ratio':32s} {failed / attempted:.6g} ratio  ({failed} of {attempted} "
          "operations failed)")
    print(f"{'peak_rss_mb':32s} {peak_rss_mb(results):.6g} MB")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    for name, d in detail.items():
        print(f"{name:32s} median {d['median']:.4f} s  q1 {d['q1']:.4f}  q3 {d['q3']:.4f}  "
              f"n {d['n']}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, stamp=stamp, fail_ratio=failed / attempted, failures=failures,
                  detail=detail, workers=results)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
