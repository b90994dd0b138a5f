"""Tests of the benchmark's correctness gate, span recorder and speed probe.

Run from the root of a checkout:  python3 -m pytest -q perfbench

They use a tiny ``simulate`` call (n = 32, 50 steps, 2 snapshots) in place
of the real workloads, so they take seconds.
"""

from __future__ import annotations

import gc
import pathlib
import struct
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bosp  # noqa: E402
import bosp.cli  # noqa: E402
import bosp.experiments  # noqa: E402
import bosp.invariants  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

TINY = (("simulate", "--n", "32", "--dt", "1e-3", "--t-final", "0.05"),)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(worker.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(worker.READBACK, "tiny", ("simulate", 2))
    return "tiny"


def test_clean_passes_have_no_failures(tiny, tmp_path):
    ops = []
    for _ in range(2):
        _, pass_ops = worker.run_pass(tiny, 7, tmp_path)
        ops += pass_ops
    assert [op["op"] for op in ops] == ["simulate", "readback"] * 2
    assert set(ops[0]["digests"]) >= {"simulate.summary.json", "simulate.records.jsonl",
                                      "simulate.bosp"}
    assert run.count_failures(ops) == []


def _flip_last_byte(raw: bytes) -> bytes:
    return raw[:-3] + bytes([raw[-3] ^ 0xFF]) + raw[-2:]


def _nan_last_coefficient(raw: bytes) -> bytes:
    return raw[:-8] + struct.pack("<d", float("nan"))


def _truncate(raw: bytes) -> bytes:
    return raw[:-5]


@pytest.mark.parametrize("corrupt, failing_ops, readback_error", [
    # still a valid file: caught because its bytes differ from the clean run
    (_flip_last_byte, ["simulate"], None),
    (_nan_last_coefficient, ["simulate", "readback"], "NonFinitePayloadError"),
    (_truncate, ["simulate", "readback"], "TruncatedFileError"),
])
def test_corrupted_checkpoint_counts_as_failure(tiny, tmp_path, monkeypatch,
                                                corrupt, failing_ops, readback_error):
    save = bosp.cli.save_checkpoint

    def save_then_corrupt(obj, path, *a, **kw):
        save(obj, path, *a, **kw)
        pathlib.Path(path).write_bytes(corrupt(pathlib.Path(path).read_bytes()))

    _, clean = worker.run_pass(tiny, 7, tmp_path)
    monkeypatch.setattr(bosp.cli, "save_checkpoint", save_then_corrupt)
    _, corrupted = worker.run_pass(tiny, 7, tmp_path)
    failures = run.count_failures(clean + corrupted)
    assert [f.split(":")[0] for f in failures] == failing_ops
    error = corrupted[1]["error"]
    assert (error is None) if readback_error is None else error.startswith(readback_error)


def test_changed_report_byte_counts_as_failure(tiny, tmp_path, monkeypatch):
    _, first = worker.run_pass(tiny, 7, tmp_path)
    save_report = bosp.cli.save_report

    def save_with_extra_byte(report, out_dir, stem):
        paths = save_report(report, out_dir, stem)
        with open(paths["records"], "ab") as fh:
            fh.write(b" ")
        return paths

    monkeypatch.setattr(bosp.cli, "save_report", save_with_extra_byte)
    _, second = worker.run_pass(tiny, 7, tmp_path)
    failures = run.count_failures(first + second)
    assert failures == ["simulate: output bytes changed between repeats: "
                        "['simulate.records.jsonl']"]


def test_nonzero_exit_counts_as_failure(monkeypatch, tmp_path):
    monkeypatch.setitem(worker.WORKLOADS, "bad", (("simulate", "--n", "33"),))
    _, ops = worker.run_pass("bad", 0, tmp_path)
    assert ops[0]["error"] is not None
    assert len(run.count_failures(ops)) == 1


def test_tracer_counts_repeat_and_uninstall_restores(tiny, tmp_path):
    solve = bosp.experiments.solve
    fft = bosp.evolve.np.fft.fft
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert bosp.experiments.solve is not solve
            timing, _ = worker.run_pass(tiny, 7, tmp_path)
        finally:
            tracer.uninstall()
        m = tracer.metrics(timing["raw_wall_s"])
        counts.append({k: v for k, (v, unit) in m.items() if unit in ("count", "B")})
        assert m["evolve.solve_calls"][0] == 1
        assert m["evolve.steps"][0] == 50
        # if_rk4 + pad4 at n = 32: 4 stages x (ifft + fft) of 128 points per step
        assert m["evolve.fft_calls"][0] == 50 * 8
        assert m["evolve.fft_points"][0] == 50 * 8 * 128
        assert m["checkpoint.bytes_read"][0] > 0
        assert m["experiments.run_calls"][0] == 1
        shares = sum(m[f"{layer}.share"][0] for layer in LAYERS)
        assert 0 < shares <= 100.0 + 1e-9
    assert counts[0] == counts[1]
    assert bosp.experiments.solve is solve and bosp.solve is solve
    assert bosp.evolve.np.fft.fft is fft


def test_nested_calls_are_timed_once():
    grid = bosp.PeriodicGrid(1.0, 32)
    u0 = 0.1 * bosp.SpectralField.from_function(grid, np.cos)
    traj = bosp.solve(u0, bosp.SolverConfig("gbo", 1e-3, 0.01, sample_stride=5))
    tracer = Tracer()
    tracer.install()
    try:
        bosp.invariants.xnorm(traj, 1)  # calls xnorm_series inside
    finally:
        tracer.uninstall()
    outer, inner = tracer.spans[0], tracer.spans[1]
    assert (outer[1], inner[1], inner[4]) == ("xnorm", "xnorm_series", 0)
    m = tracer.metrics(1.0)
    assert m["invariants.xnorm_s"][0] == outer[3] - outer[2]


def test_probe_scales_time_and_creates_no_tracked_objects():
    gc.disable()
    try:
        with probe.SpeedProbe() as sp:
            mark = sp.mark()
            start = time.perf_counter()
            while sp.mark() < mark + 2:  # spin without allocating
                pass
            before = gc.get_count()
            while sp.mark() < mark + 6:
                pass
            after = gc.get_count()
            timing = sp.normalize(time.perf_counter() - start, [(mark, sp.mark())])
    finally:
        gc.enable()
    # The interpreter may materialize the interrupted frame for the handler
    # (one object, now and then); the kernel itself must add nothing.
    assert after[0] - before[0] <= 4
    assert timing["probes"] >= 6
    expected = (timing["raw_wall_s"] - timing["probe_s"]) * probe.NOMINAL_S / timing["kernel_s"]
    assert timing["wall_s"] == pytest.approx(expected)
