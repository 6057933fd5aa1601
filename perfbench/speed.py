"""Host speed probe: scales measured times to a fixed reference speed.

On a shared virtual machine the CPU's speed wanders by up to about 1.6x
over fractions of a second to minutes, because of other load on the host.
Every end-to-end time the benchmark reports is divided by the host's
slowdown while it was measured. The slowdown comes from three small
reference kernels that do the kinds of work redkit does (interpreted
arithmetic, small NumPy calls, dict and list building) and never call
redkit, so a change to redkit cannot move them.

While the probe runs, an interval timer interrupts the measured code every
``PROBE_INTERVAL_S`` of wall time, and the signal handler runs the kernels
once each and times them. The samples thus cover the measured work evenly,
also inside a long request. The handler's own time is recorded in
:attr:`SpeedProbe.busy_s`, so that callers can take it out of their timings.

The slowdown of one kernel is its median time over the samples divided by
its time at the reference speed; the host's slowdown is the mean over the
three kernels. It is taken over the samples near a timed interval: those
inside it and within ``WINDOW_S`` of either end. A time divided by it reads
as the time the work would have taken at the reference speed.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

PROBE_INTERVAL_S = 0.02
# samples this close to a timed interval also count toward its slowdown
WINDOW_S = 0.25

_rng = random.Random(20260301)
_ARRAYS = [np.array([[_rng.random() for _ in range(3)] for _ in range(8)])
           for _ in range(6)]


def _interpreted() -> None:
    s = 0
    for i in range(2500):
        s += i * i % 7


def _small_numpy() -> None:
    for a in _ARRAYS:
        b = a - a.mean(axis=0)
        np.clip(b, -0.5, 0.5, out=b)
        float(np.abs(b).max())


def _containers() -> None:
    d = {}
    for i in range(400):
        d[(i % 97, i)] = [float(i), i * 0.5]
    sorted(d.items())


KERNELS = (_interpreted, _small_numpy, _containers)
# seconds per kernel at the reference speed: medians over the benchmark's
# workloads on a 2-vCPU Intel Xeon virtual machine, so that scaled times read
# close to wall times there
REFERENCE_S = (0.25e-3, 0.29e-3, 0.42e-3)


class SpeedProbe:
    """Samples the kernels on a timer; :meth:`slowdown` reduces them."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._times: list[list[float]] = [[] for _ in KERNELS]
        self.busy_s = 0.0

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        for times, kernel in zip(self._times, KERNELS):
            t = clock()
            kernel()
            times.append(clock() - t)
        self._at.append(start)
        self.busy_s += clock() - start

    @contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        """Sample on a wall-clock timer for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean over the kernels of median time / reference time, over the
        samples near the interval from ``start`` to ``end`` (perf_counter
        seconds)."""
        if not self._at:
            raise RuntimeError("the speed probe took no sample")
        lo = bisect.bisect_left(self._at, start - WINDOW_S)
        hi = bisect.bisect_right(self._at, end + WINDOW_S)
        if lo == hi:  # none near: the nearest sample on each side
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.fmean(
            statistics.median(times[lo:hi]) / ref
            for times, ref in zip(self._times, REFERENCE_S))

    def clear(self) -> None:
        self._at.clear()
        for times in self._times:
            times.clear()
        self.busy_s = 0.0
