"""Machine-speed probe: a fixed pure-Python BFS kernel timed throughout a run.

On a shared machine the same work takes up to ~2x longer in one half-minute
window than in the next, because other tenants slow the CPU. Medians over many
calls remove short bursts but not that drift. The probe runs a fixed kernel of
the same kind as the library's work (deque BFS over tuple adjacency) between
timed calls, at most every ``INTERVAL`` seconds. Each timed call is scaled by
``REFERENCE_S / t``, where ``t`` is the median probe time next to that call, so
a reported time is the call's duration at the speed at which the probe takes
``REFERENCE_S``. The kernel lives here and not in the library, so no
change to the library moves it.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from collections import deque

INTERVAL = 0.1  # seconds of benchmark work between two probes
REFERENCE_S = 0.004  # probe time on an unloaded 2-core x86-64 VM, Python 3.11
_N = 2000
_SOURCES = (0, 500, 1000, 1500, 1999)


def _adjacency() -> tuple[tuple[int, ...], ...]:
    rng = random.Random(20240601)
    adj: list[set[int]] = [{(v - 1) % _N, (v + 1) % _N} for v in range(_N)]
    for v in range(_N):
        w = rng.randrange(_N)
        if w != v:
            adj[v].add(w)
            adj[w].add(v)
    return tuple(tuple(sorted(a)) for a in adj)


_ADJ = _adjacency()


def _kernel() -> int:
    total = 0
    for s in _SOURCES:
        dist = [math.inf] * _N
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in _ADJ[u]:
                if dist[w] == math.inf:
                    dist[w] = du + 1
                    queue.append(w)
        total += max(dist)
    return total


class Probe:
    """Probe timings and when they ended; ``maybe`` probes once per INTERVAL."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.samples: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.samples.append(t1 - t0)

    def maybe(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL:
            self.run()

    def scaled(self, t0: float, t1: float) -> float:
        """Duration t1 - t0 at reference speed, judged by the probes around it.

        Uses the two probes that ended last before t0 and the two that ended
        first after t1, so a call that ran in a slow patch is scaled down by
        the slowdown measured next to it.
        """
        i = bisect.bisect_right(self.ends, t0)
        j = bisect.bisect_left(self.ends, t1)
        near = self.samples[max(0, i - 2) : i] + self.samples[j : j + 2]
        return (t1 - t0) * REFERENCE_S / statistics.median(near)
