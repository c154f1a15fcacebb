"""Host-speed calibration: timings rescaled to a nominal host speed.

The benchmark shares a few cores of a busy host, whose speed drifts by
10-35 % over seconds to minutes; the same operations, timed minutes apart,
differ by that much.  So the timed loop interleaves, every ``EVERY_S`` of
operation time, a fixed pure-Python reference block that does not touch
the program (free reduction, tuple windows counted in a dict, a Fraction
sum: the kinds of work the program does), and every timing is rescaled by
how fast the reference ran around it:

    normalised = measured * NOMINAL_S / (median of the K reference
                                         samples nearest in time)

``NOMINAL_S`` is the reference block's typical time on the host the
benchmark was written on, so normalised figures read as seconds there.
The reference runs with the garbage collector off, so that a program that
keeps a large heap does not slow the reference and hide its own cost.
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import time
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.025  # operation time between two reference samples
REPS = 4  # reference blocks per sample, about 2 ms together
NOMINAL_S = 0.0019  # typical seconds of one sample
K = 9  # samples whose median gives the speed at one moment


def cpu_clock() -> float:
    """CPU seconds of this process and its waited-for children.

    Unlike wall time it leaves out the time the host or other processes
    take the processor away.  It sums threads and misses children not
    waited for, so it stands for wall time only in a single-threaded
    program like this one."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _letters(n: int, rank: int = 3) -> list[int]:
    x, out = 12345, []
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        l = (x >> 8) % rank + 1
        out.append(l if (x >> 4) & 1 else -l)
    return out


_WORD = _letters(600)


def reference_block() -> Fraction:
    stack: list[int] = []
    for l in _WORD:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    w = tuple(stack)
    n = len(w)
    counts: dict = {}
    for i in range(n):
        key = (w[i], w[(i + 1) % n], w[(i + 2) % n])
        counts[key] = counts.get(key, 0) + 1
    total = Fraction(0)
    for i, (key, c) in enumerate(sorted(counts.items())):
        total += Fraction(c, i + 4 + key[0] % 3)
    return total


class HostSpeed:
    """Reference samples taken during a run, and the scale they give."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample was taken
        self.seconds: list[float] = []  # its CPU seconds
        self.sampled_at = float("-inf")  # operation time at the last sample
        for _ in range(3):  # warm the reference up
            self.sample()
        self.times.clear()
        self.seconds.clear()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start, cpu = perf_counter(), cpu_clock()
            for _ in range(REPS):
                reference_block()
            cpu, end = cpu_clock() - cpu, perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.seconds.append(cpu)

    def maybe_sample(self, busy_s: float) -> None:
        """Take a sample once ``EVERY_S`` of operation time has passed."""
        if busy_s - self.sampled_at >= EVERY_S:
            self.sampled_at = busy_s
            self.sample()

    def scale(self, t: float) -> float:
        """NOMINAL_S over the median of the K samples nearest to time t."""
        n = len(self.times)
        if n < K:
            raise RuntimeError(f"only {n} reference samples; need {K}")
        i = bisect.bisect_left(self.times, t)
        lo, hi = i, i  # grow [lo, hi) towards the nearer side
        while hi - lo < K:
            if lo == 0:
                hi += 1
            elif hi == n:
                lo -= 1
            elif t - self.times[lo - 1] <= self.times[hi] - t:
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])
