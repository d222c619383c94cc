"""Time operations in reference seconds, so host drift cancels.

The 2-vCPU VM this benchmark was sized on changes speed by up to 2.5x
over seconds to minutes, on both vCPUs at once, and its process CPU time
drifts with wall time.  So a fixed pure-Python loop is timed next to
every operation: twice just before it, and every 0.1 s during it from a
SIGALRM handler (an operation too short for WINDOW samples of its own
borrows the latest ones).  Each sample is preceded by a short untimed run of the
loop, so the cache state the program leaves behind does not enter it.
An operation's reference time is its wall time less the time the handler
took, scaled by REFERENCE_S over the mean loop time (the slowest tenth
of the samples left out): the time it would have taken on a host that
runs the loop in REFERENCE_S.

Signals reach the handler only between bytecodes, so during a long call
into C (numpy, a large write) the samples wait until it returns; they
still measure the host's speed at that moment.
"""

from __future__ import annotations

import collections
import gc
import signal
import statistics
import time
from typing import Callable

#: the loop time of the reference host, about the loop's usual time on the
#: 2-vCPU VM the benchmark was sized on (Python 3.11.7)
REFERENCE_S = 1.5e-3
#: iterations of one timed sample, and of the untimed warm-up before it
LOOP_N, WARM_N = 1000, 100
#: samples taken just before each operation, and the period during it
BEFORE = 2
PERIOD_S = 0.1
#: an operation with fewer samples of its own (one shorter than about
#: 2 s) is scaled by this many of the latest samples, its own included
WINDOW = 20


def _loop(n: int) -> int:
    out = []
    d = {}
    x = 0.1
    for i in range(n):
        x = x * 1.0000001 + 0.5
        s = f"{x:.17g},{i}"
        d[i & 255] = (s, i)
        out.append(len(s))
    return sum(out)


def loop_time(samples: list[float]) -> float:
    """Mean loop time without the slowest tenth of the samples: a stall of
    the host that lands in a 1.5 ms sample would otherwise outweigh
    dozens of others."""
    kept = sorted(samples)[:len(samples) - len(samples) // 10]
    return statistics.fmean(kept)


class Clock:
    """Installs its SIGALRM handler for the life of the process; the
    handler samples only while an operation is being timed."""

    def __init__(self):
        self._samples: list[float] = []
        self._recent: collections.deque[float] = collections.deque(maxlen=WINDOW)
        self._spent = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> None:
        # a collection started by the loop's allocations would traverse
        # the program's heap inside the sample
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _loop(WARM_N)
            t1 = time.perf_counter()
            _loop(LOOP_N)
            t2 = time.perf_counter()
        finally:
            if gc_was_enabled:
                gc.enable()
        self._samples.append(t2 - t1)
        self._recent.append(t2 - t1)
        self._spent += t2 - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._sample()

    def time(self, fn: Callable):
        """(fn(), wall seconds, reference seconds) of one call."""
        self._samples = []
        for _ in range(BEFORE):
            self._sample()
        self._spent = 0.0
        self._active = True
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
            wall = time.perf_counter() - t0
        net = wall - self._spent
        samples = self._samples if len(self._samples) >= WINDOW else list(self._recent)
        return result, wall, net * REFERENCE_S / loop_time(samples)
