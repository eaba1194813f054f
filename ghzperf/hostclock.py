"""A clock that runs at a fixed reference speed of the host.

A shared host runs all of this process's work, interpreter loops and
BLAS alike, at a fast or a slow speed in phases of 5-30 s (see the
README), which moves the wall time of the same work by up to 40%.  The
gauge below is a fixed piece of work of the benchmark's own, not of the
program; it slows with the host.  ``ReferenceClock`` runs the gauge every
GAUGE_PERIOD_S, from a timer signal, and at every read, and advances by
each interval's wall time scaled by GAUGE_REFERENCE_S over the mean of
the gauge readings at its two ends.  Gauge runs are left out of both the
wall and the reference time.
"""

import math
import signal
import time

import numpy as np

GAUGE_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
GAUGE_MATRIX += GAUGE_MATRIX.T
# host_gauge() on a 2-vCPU Xeon VM in its fast phase: the 10th
# percentile of 700 readings over 40 s read 1.51 ms, the median 2.02 ms.
GAUGE_REFERENCE_S = 0.0015
GAUGE_PERIOD_S = 0.25


def host_gauge():
    """Seconds the host takes for a fixed interpreter loop and a dense
    eigh: the fastest of three tries, about 1.5 ms each."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(12000):
            total += i * i
        np.linalg.eigh(GAUGE_MATRIX)
        best = min(best, time.perf_counter() - start)
    return best


class ReferenceClock:
    """Wall seconds and reference seconds elapsed between ``start`` and
    ``stop``, outside the gauge's own runs.

    The timer's handler runs between two bytecodes of the main thread, so
    a long call into compiled code delays the reading to its return; that
    interval then takes the mean of the readings on its two sides.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._last_end = None
        self._last_gauge = None
        self._busy = False

    def _tick(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            gauge = host_gauge()
            if self._last_end is not None:
                wall = begin - self._last_end
                self.wall_s += wall
                self.reference_s += wall * GAUGE_REFERENCE_S / (0.5 * (gauge + self._last_gauge))
            self._last_gauge = gauge
            self._last_end = time.perf_counter()
        finally:
            self._busy = False

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def read(self):
        """(wall seconds, reference seconds) from ``start`` to now."""
        self._tick()
        return self.wall_s, self.reference_s
