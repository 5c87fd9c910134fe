"""Host-speed probe: scales a command's times to a reference host speed.

On a shared host the speed of pure-Python code drifts by up to 2x from
one minute to the next, for whole minutes, so no estimator taken inside
one run can hide a slow minute.  So each command times a fixed
pure-Python loop in its own process, every :data:`PERIOD_S` seconds from a
``SIGALRM`` handler, interleaved with its own work, and its time is
scaled by how fast the loop ran::

    adjusted = time * REFERENCE_S / mean(loop thread-CPU times)

The loop runs on the same CPU as the command, at the moments the command
runs, and it is timed in thread CPU time, like the command's own CPU
time that :mod:`perfbench.run` scales: a host that deschedules the guest
CPU without reporting steal slows both alike, and one that reports steal
leaves both out.  The mean, not the median, follows a command that is
slowed for part of its life.  The loop's own time is taken out of the
command's CPU time.  The loop uses nothing of ``repro``, so no change to
the program can move it, and it must never change: that would rescale
every adjusted time.  README.md has the measurements behind these choices.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between two timings of the loop (each takes ~1.5 ms).
PERIOD_S = 0.05
#: Typical CPU time of one loop on the 2-core x86-64 host the benchmark was
#: tuned on; it only fixes the scale of adjusted times.
REFERENCE_S = 1.5e-3


def loop() -> int:
    """The fixed reference work: tuple keys, a dict, strings and a list."""
    table: dict = {}
    out: list = []
    for i in range(3000):
        key = ("v", i % 97, i & 7)
        table[key] = table.get(key, 0) + i
        out.append(f"{key[0]}{i % 13}")
        if len(out) > 64:
            out.clear()
    return len(table)


class SpeedProbe:
    """Times :func:`loop` in this process every :data:`PERIOD_S` seconds of
    wall time, from :meth:`start` until :meth:`stop`."""

    def __init__(self) -> None:
        #: (wall clock when the loop started, thread CPU seconds it took)
        self.samples: List[Tuple[float, float]] = []

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        start, cpu_start = time.perf_counter(), time.thread_time()
        loop()
        self.samples.append((start, time.thread_time() - cpu_start))

    def factor(self) -> float:
        """REFERENCE_S over the mean loop time; 1.0 without a timing."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(t for _, t in self.samples)

    def cpu_between(self, start: float, end: float) -> float:
        """Thread CPU seconds the loop took in [start, end]."""
        return sum(t for at, t in self.samples if start <= at <= end)
