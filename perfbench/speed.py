"""Machine-speed gauge for a host whose speed drifts while it runs.

On a shared host the same op can take 1.5x longer in one 20-second window
than in the next, on every op class at once: the core flips between a fast
and a slow state, for tens of milliseconds to seconds at a time, in
proportions that change from window to window.  The gauge therefore times
a fixed piece of reference work (exact Gauss-Jordan elimination of a 5x5
`Fraction` matrix: stdlib only, no acplab code) every INTERVAL_S of wall
time while the measured code runs, from a SIGALRM handler, so that it also
samples the speed inside a long op.  A measured time is scaled to seconds
on a machine that does the reference work in NOMINAL_S by `factor()` over
the reference times taken during it and LOCAL on each side.

`clock()` leaves out the time spent in the gauge, so a latency read with it
is the program's time only.  The reference is the same kind of work that
dominates acplab (interpreted exact rational arithmetic) and runs no acplab
code, with the cyclic garbage collector off, so it does not pay for
collecting the objects the program left behind.  It still shares the
process with the program: allocator state or cache pressure that the
program leaves can reach it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0007     # reference time on a 2.1 GHz Xeon core in its slow state
INTERVAL_S = 0.02      # wall time between two reference times
LOCAL = 3              # reference times on each side of a measured span
_SIZE = 5


def _matrix():
    # fixed entries from a linear congruential sequence, nonsingular
    rows, v = [], 12345
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE):
            v = (v * 1103515245 + 12345) % 2 ** 31
            row.append(Fraction(v % 19 - 9))
        rows.append(row)
    return rows


def reference_work():
    m = _matrix()
    for c in range(_SIZE):
        p = next(i for i in range(c, _SIZE) if m[i][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(_SIZE):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return m


class Gauge:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0       # seconds spent in sample()
        self._busy = False

    def sample(self, times=1):
        if self._busy:         # a timer signal during a sample
            return
        self._busy = True
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = perf_counter()
                reference_work()
                self.samples.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
            self.spent += perf_counter() - start
            self._busy = False

    def clock(self):
        """perf_counter() without the time spent in the gauge."""
        return perf_counter() - self.spent

    @contextlib.contextmanager
    def running(self):
        """Sample LOCAL times, then every INTERVAL_S until the block ends,
        then LOCAL times more."""
        self.sample(LOCAL)
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample(LOCAL)

    def factor(self, first=0, end=None):
        """Measured seconds times this are nominal seconds, for a span
        during which samples[first:end] were taken (all by default)."""
        if end is None:
            end = len(self.samples)
        # a reference time above the 90th percentile is a pause, not speed
        cap = statistics.quantiles(self.samples, n=10)[-1]
        near = self.samples[max(0, first - LOCAL):end + LOCAL]
        return NOMINAL_S / statistics.fmean(min(x, cap) for x in near)
