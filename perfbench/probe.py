"""CPU speed probe: takes the host's speed drift out of pass times.

On a shared host the speed of one virtual CPU changes by up to 2x within
seconds, as other tenants load the same physical core, and a probe running
on another CPU does not see it.  So the probe runs on the measured thread
itself: a SIGALRM interval timer interrupts the work every ``PERIOD_S`` and
times a fixed numpy kernel (``KERNEL_ITERS`` forward and inverse FFTs of
``KERNEL_SIZE`` points, code that does not depend on bosp).  FFT work tracks
the slowdown of the workloads, which are FFT-bound; under the same load,
pure interpreter loops or vector math tracked it worse.  A
Python signal handler runs between bytecodes, never inside a numpy call, so
the work is paused, not disturbed.

For timed work, ``normalize`` returns its wall time less the probe's own
time, scaled by ``NOMINAL_S / mean kernel time``: the time the work would
have taken at the speed where the kernel takes ``NOMINAL_S``, about
its 10th-percentile time on the 2-core Xeon VM it was set on (Python 3.11,
numpy 2.4).
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

PERIOD_S = 0.05
WARM_ITERS = 2
KERNEL_ITERS = 10
KERNEL_SIZE = 512
NOMINAL_S = 0.16e-3
MAX_TICKS = 1 << 13  # 400 s of ticks, more than a run may last


def _kernel(y, f, x, iters):
    """Forward and inverse FFT rounds, all written into preallocated arrays.

    numpy's FFT gufuncs are called directly: the public ``numpy.fft``
    wrappers create Python objects on every call.
    """
    np.copyto(y, x)
    for _ in range(iters):
        _fft(y, 1.0, out=f)
        np.multiply(f, 0.5, out=f)
        _ifft(f, 1.0 / KERNEL_SIZE, out=y)
        np.add(y, x, out=y)


class SpeedProbe:
    """Context manager that samples the kernel time while it is active.

    The kernel creates no Python objects that the garbage collector counts,
    and the handler keeps no memory: its arrays and tick log are made here
    and the kernel writes into them.  So the probe does not shift when the
    collector runs, and ``peak_rss_mb``, read in the same process, repeats.
    """

    def __init__(self):
        self._x = np.cos(np.arange(float(KERNEL_SIZE))) + 0j
        self._y = np.empty_like(self._x)
        self._f = np.empty_like(self._x)
        self._handler_s = np.zeros(MAX_TICKS)
        self._kernel_s = np.zeros(MAX_TICKS)
        self._count = 0
        self._previous = None
        # Make the FFT plans now, at a fixed point, not in the first tick.
        _kernel(self._y, self._f, self._x, 1)

    def _tick(self, signum, frame):
        i = self._count
        if i == MAX_TICKS:
            return
        start = time.perf_counter()
        # Untimed first round: the work evicts the kernel's code and data
        # from cache, and how much depends on the work, not on the host.
        _kernel(self._y, self._f, self._x, WARM_ITERS)
        timed = time.perf_counter()
        _kernel(self._y, self._f, self._x, KERNEL_ITERS)
        end = time.perf_counter()
        self._handler_s[i] = end - start
        self._kernel_s[i] = end - timed
        self._count = i + 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Number of ticks so far; marks the start or end of an interval."""
        return self._count

    def normalize(self, wall_s: float, intervals) -> dict:
        """Scaled time of work that took ``wall_s`` seconds in total.

        ``intervals`` are the (start, end) marks of the stretches the work
        ran in; the ticks inside them give the probe time to take off and
        the mean kernel time to scale by.
        """
        n = sum(end - start for start, end in intervals)
        if not n:
            return {"wall_s": wall_s, "raw_wall_s": wall_s, "probe_s": 0.0,
                    "kernel_s": NOMINAL_S, "probes": 0}
        probe_s = sum(float(self._handler_s[a:b].sum()) for a, b in intervals)
        kernel_s = sum(float(self._kernel_s[a:b].sum()) for a, b in intervals) / n
        return {"wall_s": (wall_s - probe_s) * NOMINAL_S / kernel_s, "raw_wall_s": wall_s,
                "probe_s": probe_s, "kernel_s": kernel_s, "probes": n}
