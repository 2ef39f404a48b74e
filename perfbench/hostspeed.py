"""How fast the host runs while an op runs, from a fixed piece of work.

The benchmark runs on a few cores of a shared host whose speed drifts by
20% and more within a second, and the drift moves every timing the same
way. While a workload runs, a profiling timer interrupts the process every
`INTERVAL_S` of CPU time and the handler times `reference_chunk`, a fixed
mix of interpreter loop, long-integer and `Fraction` arithmetic that calls
nothing in rootsep. An op's time is its wall time minus the chunks run
inside it, scaled by `NOMINAL_CHUNK_S` over the mean time of the chunks run
during it: the time the op would take on a host running at that nominal
speed. A change to rootsep moves it in full, because the chunk does not
depend on rootsep; sampling inside the op, not between ops, is what lets
the chunks see the same drift as the op.

`NOMINAL_CHUNK_S` is a fixed constant, about the chunk's time on a 2-vCPU
x86-64 VM, so reported times compare across commits and runs.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

#: typical `reference_chunk` time inside a run, seconds
NOMINAL_CHUNK_S = 0.0004
#: CPU time between two chunks while a workload runs
INTERVAL_S = 0.005
#: chunks this close to an op, in seconds, count towards its speed factor
WINDOW_S = 0.02

_A, _B = 3 ** 1500, 7 ** 1300


def reference_chunk():
    """A fraction of a millisecond of work shaped like rootsep's: bytecode,
    long integers and rationals. It touches no shared state (no mpmath
    context), because it runs inside rootsep's code."""
    s = 0
    for i in range(1000):
        s += (i * i) % 7
    x = 0
    for _ in range(10):
        x ^= (_A * _B) >> 100
    f = Fraction(0)
    for k in range(1, 30):
        f += Fraction(1, k)
    return s, x, f


class HostSpeed:
    """Chunk timings in time order, and speed factors read from them."""

    def __init__(self):
        self.mids: list[float] = []  # perf_counter midpoint of each chunk
        self.secs: list[float] = []  # its duration
        self.busy = 0.0  # seconds spent in chunks so far

    def _chunk(self, *_signal) -> None:
        start = time.perf_counter()
        reference_chunk()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.secs.append(end - start)
        self.busy += end - start

    def sample(self, budget_s: float) -> None:
        """Time chunks back to back for about `budget_s` seconds."""
        until = time.perf_counter() + budget_s
        while time.perf_counter() < until:
            self._chunk()

    def start(self) -> None:
        """Time a chunk every `INTERVAL_S` of CPU time until `stop`."""
        signal.signal(signal.SIGPROF, self._chunk)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, start: float, end: float) -> float:
        """Nominal over mean chunk time, from the chunks run within
        `WINDOW_S` of [start, end], or the nearest ones if none are: below
        1 when the host ran slow."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.mids))
        return NOMINAL_CHUNK_S * (hi - lo) / sum(self.secs[lo:hi])
