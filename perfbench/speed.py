"""The host's speed, measured with a fixed reference loop.

The benchmark runs on a few cores of a shared virtual machine whose speed
drifts: a fixed loop alone on the machine runs up to twice as fast for
seconds or minutes at a time, and process CPU time drifts with wall time,
so neither longer runs nor CPU time remove it.  The benchmark therefore
runs this loop, which does not use tabcop, between operations and reports
every operation time scaled to the loop's nominal speed::

    scaled = raw * REFERENCE_S / median(loop times within WINDOW_S of the operation)

A program change moves the raw time and leaves the loop alone, so it moves
the scaled time by the same share; a slow stretch of the host moves both.
The window's median follows the host from one stretch to the next and
ignores a single odd loop time.  The raw times and the loop times are
kept in the run metadata.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

import numpy as np

#: Typical time of :func:`reference_time` on the host the bounds in
#: BENCHMARK.json were set on (2 vCPU VM, Python 3.11, NumPy 2.4) in its
#: usual, slower state, so that scaled times read close to raw ones there.
REFERENCE_S = 2.4e-3
REPEATS = 5
#: Half-width of the window of loop times that scales one operation.
WINDOW_S = 5.0


def _graph(n=300, degree=6):
    rng = random.Random(0)
    return [[rng.randrange(n) for _ in range(degree)] for _ in range(n)]


_GRAPH = _graph()


def _loop():
    """Graph search over lists and dicts, and small-array NumPy work, as tabcop does."""
    for source in range(0, len(_GRAPH), 50):
        depth, queue = {source: 0}, [source]
        for v in queue:
            for w in _GRAPH[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        sorted(depth.items(), key=lambda item: item[1])
    a = np.arange(1.0, 65.0).reshape(8, 8)
    for _ in range(100):
        a = a / a.sum(axis=1, keepdims=True)
        a = a / a.sum(axis=0, keepdims=True)
    return a


def reference_time():
    """Median wall time of REPEATS runs of the reference loop.

    The median, not the shortest, because an operation runs at the host's
    typical speed of the moment: the shortest run catches brief bursts of
    speed that the operations around it do not see.
    """
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedLog:
    """Reference loop times over a run, on the clock of the run."""

    def __init__(self, start):
        self.start = start
        self.times, self.values = [], []

    def sample(self):
        self.values.append(reference_time())
        self.times.append(perf_counter() - self.start)

    def factor(self, mid):
        """Scale factor for an operation whose midpoint is ``mid`` seconds in.

        The window always holds the samples just before and just after
        ``mid``, so an operation longer than the window is scaled too.
        """
        i = bisect.bisect_left(self.times, mid)
        lo = min(bisect.bisect_left(self.times, mid - WINDOW_S), max(i - 1, 0))
        hi = max(bisect.bisect_right(self.times, mid + WINDOW_S), min(i + 1, len(self.times)))
        return REFERENCE_S / statistics.median(self.values[lo:hi])


_loop()  # first call allocates; keep it out of every measurement
