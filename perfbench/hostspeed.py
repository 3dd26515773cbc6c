"""Host speed, sampled between controller steps, to adjust step times for it.

On a shared host the CPU available to one process changes speed in phases
of seconds to minutes, by up to 1.6x, and over tens of minutes the median of
a run drifts with it.  A fixed reference kernel run between controller
steps slows down with the host.  A time scaled by ``NOMINAL_MS / kernel ms``
measured around it reads as it would on a host where that kernel takes
``NOMINAL_MS``; the slow and fast phases then largely cancel.

Two kernels match the two regimes of the workloads:

- ``small``: short numpy calls on small arrays, where the time goes to
  Python and call overhead (paper-scale sample counts).
- ``large``: element-wise numpy work on arrays of a few thousand rows,
  where the time goes to arithmetic (large sample counts).

Each kernel is run three times per sample and the fastest is kept, so a
sample measures the CPU with warm caches rather than what the controller
left in them.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Kernel time in ms that adjusted times are scaled to: about the fastest
# seen for each kernel, between controller steps, on a 2-vCPU x86-64 host.
NOMINAL_MS = {"small": 0.30, "large": 0.40}
REPEATS = 3
INTERVAL_S = 0.1  # at most one sample per this many seconds of stepping
WINDOW_S = 0.5  # a step is adjusted by the samples within this many seconds

_SMALL = np.linspace(-1.0, 1.0, 256 * 8).reshape(256, 8)
_LARGE = np.linspace(-1.0, 1.0, 4096 * 4).reshape(4096, 4)


def _small() -> None:
    for i in range(20):
        np.tanh(_SMALL * 0.5 + i) @ _SMALL.T[:, :8]


def _large() -> None:
    for i in range(3):
        np.exp(-np.abs(_LARGE * 0.3 + i)).sum(axis=0)


KERNELS = {"small": _small, "large": _large}


def kernel_ms(kind: str) -> float:
    """The fastest of ``REPEATS`` runs of the reference kernel, in ms."""
    kernel = KERNELS[kind]
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best * 1e3


class HostSpeed:
    """Reference-kernel samples taken between steps, and the scale they give.

    ``sample()`` is called after each controller step, outside the timed
    region; it runs the kernel when ``INTERVAL_S`` has passed since the last
    sample.  ``spent_s`` is the time spent in the kernel, which callers
    subtract from the wall time of the loop.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_ms = NOMINAL_MS[kind]
        self.times: list[float] = []  # perf_counter at each sample
        self.ms: list[float] = []
        self.spent_s = 0.0

    def sample(self) -> None:
        now = perf_counter()
        if self.times and now - self.times[-1] < INTERVAL_S:
            return
        ms = kernel_ms(self.kind)
        self.times.append(now)
        self.ms.append(ms)
        self.spent_s += perf_counter() - now

    def _median_between(self, t0: float, t1: float) -> float:
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        if j == i:  # no sample in the interval: use the one nearest to it
            before = i > 0 and (i == len(self.times) or t0 - self.times[i - 1] < self.times[i] - t1)
            i, j = (i - 1, i) if before else (i, i + 1)
        return statistics.median(self.ms[i:j])

    def scale_at(self, t: float) -> float:
        """Nominal over measured kernel time around ``t``: multiply a time taken at ``t`` by it."""
        return self.nominal_ms / self._median_between(t - WINDOW_S, t + WINDOW_S)

    def scale_between(self, t0: float, t1: float) -> float:
        """Nominal over measured kernel time from ``t0`` to ``t1``."""
        return self.nominal_ms / self._median_between(t0, t1)
