"""Machine-speed correction for the end-to-end times.

On a shared machine the speed of a process swings by up to 2x over seconds
and by a third or more over minutes, as other tenants come and go, and every
op of a run moves with it.  The runner therefore interleaves a fixed
reference job, written here and independent of seatlot, with the workload's
ops, and scales each op's time by ``REFERENCE_MS`` over the median (for
rates: the mean) reference time measured within ``WINDOW_S`` of that op.  The end-to-end
times then read as if the reference had taken ``REFERENCE_MS`` throughout:
a change to the package moves them, a change in the machine's speed mostly
does not.  Measured on a 2-vCPU VM, reference and op times over 3-s windows
correlated at 0.95-0.97, and scaling cut their spread about fourfold.

The scaling assumes that the package leaves the machine to the op it runs:
a change that starts background threads or processes slows the reference
too and would be partly hidden, so compare ``reference_ms`` with the
parent's.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_MS = 3.0   # the speed the scaled times are given at
WINDOW_S = 2.0       # reference samples this close to an op scale it
MIN_SAMPLES = 5      # fewer near an op: use the median of the whole run


def reference_job():
    """Fixed pure-Python work like the package's: Fraction sums of
    integers, dict updates and a sort."""
    rng = random.Random(7)
    total = Fraction(0)
    buckets: dict[int, int] = {}
    for i in range(300):
        a = rng.randrange(1, 10 ** 7)
        b = rng.randrange(1, 10 ** 7)
        total += Fraction(a, b)
        buckets[i % 37] = buckets.get(i % 37, 0) + a * b
    return total, buckets, sorted(rng.random() for _ in range(2000))


class Speed:
    """Reference samples ``(start, duration)`` taken during a run."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> float:
        # The job makes no cycles; with the collector off its time does not
        # depend on how many objects the package keeps alive.
        gc.disable()
        try:
            start = perf_counter()
            reference_job()
            elapsed = perf_counter() - start
        finally:
            gc.enable()
        self.starts.append(start)
        self.durations.append(elapsed)
        return elapsed

    def reference_s(self, at: float, estimator=statistics.median) -> float:
        """Median (or ``estimator``) of the reference times within
        ``WINDOW_S`` of time ``at``."""
        lo = bisect.bisect_left(self.starts, at - WINDOW_S)
        hi = bisect.bisect_right(self.starts, at + WINDOW_S)
        near = self.durations[lo:hi]
        if len(near) < MIN_SAMPLES:
            near = self.durations
        return estimator(near)

    def scale(self, start: float, duration: float,
              estimator=statistics.median) -> float:
        """``duration`` of an op that began at ``start``, at reference
        speed as ``estimator`` of the nearby reference times gives it."""
        return duration * REFERENCE_MS / 1000 / self.reference_s(
            start + duration / 2, estimator)
