"""Machine-speed reference for the end-to-end times.

On a few vCPUs of a shared host, speed changes by up to 2x over seconds
to minutes with the load of other tenants: a fixed loop timed alone, or one
operation timed over and over, swings as much as the workload does, and
for minutes at a time.  No statistic over a 30 s run can filter out a slow
minute.

So the harness times a small fixed reference kernel every INTERVAL seconds,
between operations and, from a SIGALRM handler, during them, and scales
every operation's wall time (less the time of the samples inside it) by
NOMINAL / (the reference time in and around it).  The result is the time the
operation would take at the speed at which the reference takes NOMINAL
seconds.  The kernel is written here and uses no jetvar code, so a change
to jetvar moves the scaled times in full while a change of machine speed
cancels out.  It does, in about equal parts, the two kinds of work that
jetvar spends its time on, which a slow host slows by different amounts:
products of sparse polynomials with Fraction coefficients, keyed by tuples
in dicts, in the interpreter; and the Gauss-Legendre nodes, which numpy
computes from a dense symmetric eigenproblem.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

from numpy.polynomial.legendre import leggauss

# About the seconds the reference kernel takes on a quiet 2-vCPU Xeon KVM
# guest (Python 3.11, numpy 2.4); scaled times are seconds at that speed.
NOMINAL = 0.005
# Gauss-Legendre nodes computed per kernel run
NODES = 160
INTERVAL = 0.2
# reference samples taken on each side of an interval to scale it
NEIGHBOURS = 3
# untimed runs of the kernel before the first sample
WARMUP = 5


def _poly(k: int) -> dict[tuple[int, ...], Fraction]:
    out = {}
    for i in range(16):
        mono = ((i * 7 + k) % 4, (i * 5 + 2 * k) % 3, (i * 3 + k) % 5, i % 2)
        out[mono] = Fraction((i * 11 + k) % 13 - 6 or 1, i % 5 + 1)
    return out


def _times(a, b):
    out: dict[tuple[int, ...], Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in sorted(out.items()) if c}


def kernel() -> int:
    """The fixed reference work; returns a size so that it is not elided."""
    a, b, c = _poly(1), _poly(2), _poly(3)
    nodes, _weights = leggauss(NODES)
    return len(_times(a, b)) + len(_times(b, c)) + len(nodes)


class Speedometer:
    """Reference-kernel times, sampled at most every INTERVAL seconds."""

    def __init__(self):
        self.times: list[float] = []   # midpoint of each sample
        self.costs: list[float] = []   # its wall time
        # total wall time of the samples taken by the alarm handler
        self.stolen = 0.0
        self._last = float("-inf")
        for _ in range(WARMUP):
            kernel()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)
        self._last = t1

    def tick(self) -> None:
        """Sample once per INTERVAL seconds since the last sample, up to
        NEIGHBOURS times: after a long operation the samples next to it
        are then all taken right at its end."""
        due = int((time.perf_counter() - self._last) / INTERVAL)
        for _ in range(min(due, NEIGHBOURS)):
            self.sample()

    def arm(self) -> None:
        """Sample every INTERVAL seconds from SIGALRM until disarm().  The
        handler stays installed, so that an alarm already pending when the
        timer stops is still handled."""
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _alarm(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - t0

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL over the median reference time of the samples taken
        within [t0, t1] and the NEIGHBOURS nearest on each side of it."""
        lo = bisect_left(self.times, t0)
        hi = bisect_right(self.times, t1)
        near = self.costs[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS]
        if not near:
            raise ValueError("no reference samples to scale by")
        return NOMINAL / statistics.median(near)
