"""Span recorder for the traced benchmark pass.

``Tracer.install`` rebinds every public function of the bosp layer modules
in each ``bosp`` namespace that holds it (``bosp.experiments.solve``,
``bosp.lingroup.group_symbol``, ...) and wraps ``numpy.fft``'s 1-D
transforms.  Calls made through a module global therefore open a span;
calls to private helpers and class methods count towards the enclosing
span.  FFT calls are not spans: their count and size go to the innermost
open span, and their time stays in that span's self time.

Spans are kept in memory; ``metrics`` reduces them to the per-layer figures
and ``dump`` writes them out once the pass is over.  The library source is
not touched.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "experiments", "evolve", "lingroup", "gauge",
          "invariants", "spectral", "ensembles", "checkpoint")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")

# span record fields
_LAYER, _NAME, _T0, _T1, _PARENT, _CHILD, _FFT_CALLS, _FFT_POINTS, _ERROR, _EXTRA = range(10)


def _fft_points(name, args, kwargs):
    """Points transformed by one numpy.fft call: rows x transform length."""
    shape = getattr(args[0], "shape", None) or np.shape(args[0])
    n = args[1] if len(args) > 1 else kwargs.get("n")
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    m = shape[axis] if shape else 0
    if not m:
        return 0
    if n is None:
        n = 2 * (m - 1) if name == "irfft" else m
    return math.prod(shape) // m * int(n)


def _path_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _extra(key, args, kwargs, result):
    """Layer-specific counts taken at the call boundary."""
    if key == ("evolve", "solve"):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        return {"steps": cfg.n_steps()}
    if key == ("checkpoint", "save_checkpoint"):
        return {"bytes": _path_size(args[1] if len(args) > 1 else kwargs["path"])}
    if key == ("checkpoint", "load_checkpoint"):
        return {"bytes": _path_size(args[0] if args else kwargs["path"])}
    if key == ("experiments", "save_report") and isinstance(result, dict):
        return {"bytes": sum(_path_size(p) for p in result.values())}
    return None


class Tracer:
    """Records nested spans around the public functions of each layer."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind layer functions and numpy.fft transforms to traced wrappers."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "bosp" or name.startswith("bosp."))]
        for layer in LAYERS:
            mod = sys.modules[f"bosp.{layer}"]
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapped)
        for name in FFT_NAMES:
            fn = getattr(np.fft, name)
            self._patches.append((np.fft, name, fn))
            setattr(np.fft, name, self._wrap_fft(name, fn))

    def uninstall(self):
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, name, 0.0, 0.0, parent, 0.0, 0, 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[_ERROR] = type(exc).__name__
                raise
            finally:
                rec[_T1] = t1 = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += t1 - rec[_T0]
            rec[_EXTRA] = _extra(key, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced_fft(*args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                rec[_FFT_CALLS] += 1
                rec[_FFT_POINTS] += _fft_points(name, args, kwargs)
            return fn(*args, **kwargs)

        traced_fft.__wrapped__ = fn
        return traced_fft

    # -- reduction --------------------------------------------------------

    def _inside(self, names) -> list:
        """inside[i]: span i or one of its ancestors is a call of ``names``."""
        inside = []
        for rec in self.spans:  # parents are recorded before their children
            parent = rec[_PARENT]
            inside.append(rec[_NAME] in names or (parent >= 0 and inside[parent]))
        return inside

    def _time_in(self, *names) -> float:
        """Wall time of the outermost calls of ``names`` (nested ones not counted twice)."""
        inside = self._inside(names)
        return sum(rec[_T1] - rec[_T0] for rec in self.spans
                   if rec[_NAME] in names and not (rec[_PARENT] >= 0 and inside[rec[_PARENT]]))

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the recorded spans; ``wall_s`` is the pass time."""
        spans = self.spans
        self_s = defaultdict(float)
        fft_calls = defaultdict(int)
        fft_points = defaultdict(int)
        calls = defaultdict(int)
        extra = defaultdict(int)
        errors = defaultdict(int)
        for rec in spans:
            layer, name = rec[_LAYER], rec[_NAME]
            self_s[layer] += rec[_T1] - rec[_T0] - rec[_CHILD]
            fft_calls[layer] += rec[_FFT_CALLS]
            fft_points[layer] += rec[_FFT_POINTS]
            calls[name] += 1
            if rec[_EXTRA]:
                for k, v in rec[_EXTRA].items():
                    extra[(name, k)] += v
            if rec[_ERROR]:
                errors[(name, rec[_ERROR])] += 1
        in_strichartz = self._inside(("strichartz_norm",))
        quad_levels = sum(1 for rec in spans if rec[_NAME] == "group_symbol"
                          and rec[_PARENT] >= 0 and in_strichartz[rec[_PARENT]])
        outer_s = {name: self._time_in(name) for name in (
            "solve", "strichartz_norm", "gauge_residual", "build_gauge", "invariant",
            "drift_report", "synthesize", "analyze_values_padded", "norm", "random_field",
            "save_checkpoint", "load_checkpoint", "save_report")}

        def rate_mb(nbytes, secs):
            return nbytes / 1e6 / secs if secs > 0 else 0.0

        steps = extra[("solve", "steps")]
        solve_s = outer_s["solve"]
        strich_calls = calls["strichartz_norm"]
        saved, loaded = extra[("save_checkpoint", "bytes")], extra[("load_checkpoint", "bytes")]
        m = {
            "evolve.solve_calls": (calls["solve"], "count"),
            "evolve.solve_s": (solve_s, "s"),
            "evolve.steps": (steps, "count"),
            "evolve.step_us": (solve_s / steps * 1e6 if steps else 0.0, "us"),
            "evolve.fft_calls": (fft_calls["evolve"], "count"),
            "evolve.fft_points": (fft_points["evolve"], "count"),
            "evolve.blowups": (errors[("solve", "BlowUpError")], "count"),
            "lingroup.strichartz_calls": (strich_calls, "count"),
            "lingroup.strichartz_s": (outer_s["strichartz_norm"], "s"),
            "lingroup.norm_ms": (outer_s["strichartz_norm"] / strich_calls * 1e3
                                 if strich_calls else 0.0, "ms"),
            "lingroup.quad_levels": (quad_levels, "count"),
            "lingroup.fft_points": (fft_points["lingroup"], "count"),
            "gauge.residual_calls": (calls["gauge_residual"], "count"),
            "gauge.residual_s": (outer_s["gauge_residual"], "s"),
            "gauge.build_calls": (calls["build_gauge"], "count"),
            "gauge.build_s": (outer_s["build_gauge"], "s"),
            "gauge.fft_points": (fft_points["gauge"], "count"),
            "invariants.invariant_calls": (calls["invariant"], "count"),
            "invariants.invariant_s": (outer_s["invariant"], "s"),
            "invariants.drift_report_s": (outer_s["drift_report"], "s"),
            "invariants.xnorm_s": (self._time_in("xnorm", "xnorm_series"), "s"),
            "spectral.synthesize_calls": (calls["synthesize"], "count"),
            "spectral.synthesize_s": (outer_s["synthesize"], "s"),
            "spectral.analyze_padded_calls": (calls["analyze_values_padded"], "count"),
            "spectral.analyze_padded_s": (outer_s["analyze_values_padded"], "s"),
            "spectral.norm_calls": (calls["norm"], "count"),
            "spectral.norm_s": (outer_s["norm"], "s"),
            "spectral.fft_points": (fft_points["spectral"], "count"),
            "ensembles.random_field_calls": (calls["random_field"], "count"),
            "ensembles.random_field_s": (outer_s["random_field"], "s"),
            "checkpoint.save_s": (outer_s["save_checkpoint"], "s"),
            "checkpoint.load_s": (outer_s["load_checkpoint"], "s"),
            "checkpoint.bytes_written": (saved, "B"),
            "checkpoint.bytes_read": (loaded, "B"),
            "checkpoint.save_mb_per_s": (rate_mb(saved, outer_s["save_checkpoint"]), "MB/s"),
            "checkpoint.load_mb_per_s": (rate_mb(loaded, outer_s["load_checkpoint"]), "MB/s"),
            "checkpoint.errors": (sum(v for (name, err), v in errors.items()
                                      if name in ("save_checkpoint", "load_checkpoint")), "count"),
            "experiments.run_calls": (calls["run_experiment"], "count"),
            "experiments.save_report_s": (outer_s["save_report"], "s"),
            "experiments.report_bytes": (extra[("save_report", "bytes")], "B"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_s[layer], "s")
            m[f"{layer}.share"] = (100.0 * self_s[layer] / wall_s if wall_s > 0 else 0.0, "%")
        return m

    def dump(self, path, label: str):
        """Append the raw spans, one JSON object per line, tagged ``label``."""
        with open(path, "a") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "pass": label, "id": i, "parent": rec[_PARENT],
                    "layer": rec[_LAYER], "name": rec[_NAME],
                    "start": rec[_T0], "end": rec[_T1], "child_s": rec[_CHILD],
                    "fft_calls": rec[_FFT_CALLS], "fft_points": rec[_FFT_POINTS],
                    "error": rec[_ERROR], "extra": rec[_EXTRA],
                }, separators=(",", ":")) + "\n")
