"""One benchmark worker: set up, then run timed passes of one workload.

``run.py`` starts this file in a fresh single-threaded process with
``PYTHONPATH`` set to the checkout's ``src``.  The worker imports bosp, runs
one untimed warm-up pass (so numpy's FFT plan cache and lazy set-up are
done), then runs passes until its time window is used, calling the public
entry point ``bosp.cli.main`` in-process.  With ``--trace 1`` every second
pass runs under the span recorder.  A ``SpeedProbe`` samples the CPU's
speed throughout, and each time is reported raw and scaled to the probe's
nominal speed.  The last stdout line is a JSON object with the set-up time,
each pass's times and checked operations, and the per-layer figures of the
traced passes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Each pass runs these CLI calls in order; every one is an operation.
WORKLOADS = {
    "solve-long": (("conservation",),),
    "solve-ensemble": (("flowmap",), ("estimate-monitor",)),
    "free-wave-scan": (("strichartz-scan",), ("bernstein",)),
    "fields-and-io": (
        ("simulate", "--config", str(BENCH_DIR / "simulate_fields.ini")),
        ("gauge-residual", "--k", "3", "--n-samples", "1000"),
    ),
}
# Workloads that load a call's checkpoint and save it again, with the
# snapshot count the loaded trajectory must have.
READBACK = {"fields-and-io": ("simulate", 1001)}
RESAVED_NAME = "readback.bosp"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(out_dir: pathlib.Path, stem: str) -> dict:
    """sha256 of every file a CLI call with ``--stem stem`` wrote."""
    return {p.name: sha256_file(p) for p in sorted(out_dir.glob(f"{stem}.*"))}


def read_back(ckpt: pathlib.Path, resaved: pathlib.Path):
    """Load a trajectory checkpoint and save it again (the timed part)."""
    from bosp import checkpoint

    traj = checkpoint.load_checkpoint(ckpt)
    checkpoint.save_checkpoint(traj, resaved)
    return traj


def verify_read_back(traj, ckpt: pathlib.Path, resaved: pathlib.Path, snapshots: int):
    """Return why a read-back is wrong, or None when it is right."""
    import numpy as np
    from bosp.spectral import Trajectory

    if not isinstance(traj, Trajectory):
        return f"checkpoint loaded as {type(traj).__name__}, not a Trajectory"
    if len(traj) != snapshots:
        return f"checkpoint holds {len(traj)} snapshots, expected {snapshots}"
    if not all(np.all(np.isfinite(f.coeffs)) for f in traj):
        return "checkpoint holds non-finite coefficients"
    if ckpt.read_bytes() != resaved.read_bytes():
        return "re-saved checkpoint differs from the loaded file"
    return None


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_pass(workload: str, seed: int, out_dir: pathlib.Path, probe=None):
    """Run one pass; returns (timing, checked operations).

    Only the CLI calls and the checkpoint read-back are timed; hashing the
    outputs and verifying the read-back happen after the clock stops.
    ``timing`` holds the raw wall time and, with a ``SpeedProbe``, the time
    scaled to the probe's nominal speed (without one they are equal), and
    the process's peak RSS once the CLI calls are done.  The read-back is
    left out of that peak: after the CLI calls in the same process it needs
    31 MB more or not, as the heap happens to be fragmented, while a process
    of its own that loads the checkpoint peaks below ``simulate``.
    """
    import bosp.cli

    out_dir.mkdir(parents=True, exist_ok=True)
    for p in out_dir.iterdir():
        p.unlink()
    gc.collect()
    errors = {}
    readback = READBACK.get(workload)
    traj = None
    mark = probe.mark() if probe else 0
    start = time.perf_counter()
    for name, *args in WORKLOADS[workload]:
        try:
            rc = bosp.cli.main([name, *args, "--out", str(out_dir), "--stem", name,
                                "--seed", str(seed), "--quiet"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        except Exception as exc:  # a crashing call is a failed operation, not the end of the run
            errors[name] = _error_text(exc)
            continue
        errors[name] = None if rc == 0 else f"exit code {rc}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if readback:
        ckpt, resaved = out_dir / f"{readback[0]}.bosp", out_dir / RESAVED_NAME
        try:
            traj = read_back(ckpt, resaved)
        except Exception as exc:
            errors["readback"] = _error_text(exc)
    wall = time.perf_counter() - start
    timing = (probe.normalize(wall, [(mark, probe.mark())]) if probe
              else {"wall_s": wall, "raw_wall_s": wall})
    timing["peak_rss_mb"] = peak_rss_mb

    ops = [{"op": name, "error": errors[name], "digests": output_digests(out_dir, name)}
           for name, *_ in WORKLOADS[workload]]
    if readback:
        error = errors.get("readback")
        if error is None:
            try:
                error = verify_read_back(traj, ckpt, resaved, readback[1])
            except OSError as exc:
                error = _error_text(exc)
        ops.append({"op": "readback", "error": error, "digests": {}})
    return timing, ops


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--window", type=float, required=True,
                   help="seconds of timed passes after the warm-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="scratch directory for reports")
    p.add_argument("--spans", help="file the traced passes' spans are written to")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() just before this process was started")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        import bosp
        import bosp.cli

        src = pathlib.Path(os.environ.get("PYTHONPATH", "")).resolve()
        if src not in pathlib.Path(bosp.__file__).resolve().parents:
            print(f"error: imported bosp from {bosp.__file__}, not from {src}", file=sys.stderr)
            return 2

        out_dir = pathlib.Path(args.out)
        warmup, warmup_ops = run_pass(args.workload, args.seed, out_dir)
        setup = probe.normalize(time.time() - args.spawned_at, [(0, probe.mark())])

        passes, tracers = [], []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = None
            if traced:
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
            try:
                timing, ops = run_pass(args.workload, args.seed, out_dir, probe)
            finally:
                if tracer:
                    tracer.uninstall()
            layers = None
            if tracer:
                tracers.append(tracer)
                layers = tracer.metrics(timing["raw_wall_s"])
            passes.append(dict(timing, traced=traced, ops=ops, layers=layers))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["raw_wall_s"] for p in passes)
            if len(passes) >= 1 + args.trace and elapsed + typical > args.window:
                break

    if args.spans and tracers:
        pathlib.Path(args.spans).unlink(missing_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.dump(args.spans, f"traced-{i}")

    print(json.dumps({
        "setup": setup,
        # The calls of one pass in a fresh process, as users run them; later
        # passes in the same process start from a fragmented heap.
        "peak_rss_mb": warmup["peak_rss_mb"],
        "warmup_ops": warmup_ops,
        "passes": passes,
        "stamp": {
            "bosp_version": bosp.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
