"""Machine-speed gauge: a fixed kernel timed while the workload runs.

The benchmark's two cores share physical hardware with other tenants. Their
speed drifts by up to a factor of two for seconds at a time, in CPU time as
much as in wall time, so two runs of identical work differed by 20-30%. The
gauge times a fixed kernel every INTERVAL_NS while the workload runs, and
every workload time is reported at the reference speed: multiplied by
REFERENCE_S over the kernel's time, interpolated between the samples taken
around it (each solver attempt separately), or averaged over the samples
taken during a longer span. Time spent sampling is excluded from every measured
interval.

The kernel has the program's mix: Python calls, attribute and dict access,
numpy operations on arrays of a few elements and small dense solves. It does
not call expkin, so a faster program shows as faster. Over 100 s in which the
machine slowed 1.9-fold, the ratio of toy-integration time to this kernel's
median-of-3 time held within 1.5% (interquartile range of 15 block medians),
where a pure integer loop held only within 12%.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-3
INTERVAL_NS = 300_000_000
_REPEATS = 3


class _Point:
    __slots__ = ("i", "v")

    def __init__(self, i, v):
        self.i = i
        self.v = v


def _kernel():
    base = np.arange(6.0)
    table = {}
    acc = 0.0
    for i in range(600):
        p = _Point(i, base * 0.5)
        table[i % 17] = p
        acc += float((np.exp(-p.v) + np.sqrt(p.v + 1.0)).sum()) + math.log(i + 1.0)
    A = np.eye(6) * 3.0 + 0.1
    for _ in range(60):
        x = np.linalg.solve(A, base + 1.0)
        A = A + np.outer(x, x) * 1e-6
    return acc + A[0, 0]


class SpeedGauge:
    """Kernel timings (clock_ns, seconds) and the speed factor they give."""

    def __init__(self):
        self.samples = []
        self._last_ns = 0

    def sample(self):
        """Time the kernel (median of _REPEATS); returns the ns spent doing so."""
        start = time.perf_counter_ns()
        times = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter_ns()
            _kernel()
            times.append(time.perf_counter_ns() - t0)
        self._last_ns = time.perf_counter_ns()
        self.samples.append((self._last_ns, statistics.median(times) * 1e-9))
        return self._last_ns - start

    def maybe_sample(self):
        """sample() if INTERVAL_NS has passed since the last one, else 0."""
        if time.perf_counter_ns() - self._last_ns < INTERVAL_NS:
            return 0
        return self.sample()

    def factors_at(self, times_ns):
        """REFERENCE_S / kernel time at each time, interpolated between samples."""
        t = [t for t, _ in self.samples]
        ratio = [REFERENCE_S / s for _, s in self.samples]
        return np.interp(times_ns, t, ratio)

    def factor(self, start_ns, end_ns):
        """Mean of REFERENCE_S / kernel time over the samples in [start_ns, end_ns].

        Multiply a time spent in that interval by this to express it at the
        reference speed.
        """
        ratios = [REFERENCE_S / s for t, s in self.samples if start_ns <= t <= end_ns]
        if not ratios:
            raise ValueError("no speed sample in the interval")
        return sum(ratios) / len(ratios)
