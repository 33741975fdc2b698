"""Machine-speed probe, to take a shared machine's speed drift out of the timings.

On the shared 2-core Intel Xeon virtual machine this benchmark was written
on, the same pure-Python loop runs up to 1.7 times slower in some 30-60 s
spells than in others (the process's CPU time grows with it, so this is
not time stolen by other processes but slower execution).  A 25 s run sits
inside one or two such spells, so raw times of identical work spread by
about 20% from run to run.

The probe times a fixed mix of interpreter, numpy and QUADPACK work that
uses nothing from lcmoments.  It runs between operations, at most every
``INTERVAL_S``, and inside an operation that has run for ``LONG_OP_S``
(an interval timer interrupts it every ``INTERVAL_S``; the probing time
is subtracted from its latency).  Short operations are never interrupted,
because the probe would leave them cold caches.  Latencies are reported in
reference seconds: each raw latency times ``REFERENCE_S`` over the median
probe time measured during the operation and within ``WINDOW_S`` of it.
A change to lcmoments cannot change the probe, so a slower program still
shows as slower; a slower machine does not.  Raw times are kept beside
the scaled ones in every result.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy import integrate

# a typical probe time on the machine the benchmark was written on
# (shared 2-core Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17)
REFERENCE_S = 2.6e-4

# probe period
INTERVAL_S = 0.1

# operations running longer than this are probed from the timer
LONG_OP_S = 0.5

# probes this close in time to an operation also set its scale
WINDOW_S = 1.0


def _kernel() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(2000):
        total += math.sqrt(i + 1.0)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(40):
        a = np.sqrt(a + 1.0) * 0.5
    integrate.quad(lambda x: x**1.5 * math.exp(-x), 0.0, 5.0)
    return time.perf_counter() - t0


class SpeedProbe:
    """Timed probe samples, and the scale they give to an operation."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.paused = 0.0  # seconds spent probing inside operations
        self.op_start: float | None = None  # set while an operation runs

    def sample(self) -> None:
        """Best of three probe runs, stamped with the time it ended."""
        best = min(_kernel() for _ in range(3))
        self.times.append(time.perf_counter())
        self.durations.append(best)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        if self.op_start is not None and begin - self.op_start >= LONG_OP_S:
            self.sample()
            self.paused += time.perf_counter() - begin

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.op_start = None
        return False

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe from WINDOW_S before ``start``
        to WINDOW_S after ``end`` (at least the nearest probe each side).

        One probe alone is noisy (its best of three varies by a third within
        a second), so the window takes in about twenty.
        """
        times = np.asarray(self.times)
        lo = min(int(np.searchsorted(times, start - WINDOW_S)), max(int(np.searchsorted(times, start)) - 1, 0))
        hi = max(int(np.searchsorted(times, end + WINDOW_S)), int(np.searchsorted(times, end)) + 1)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
