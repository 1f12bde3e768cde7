"""Host seconds at a fixed reference speed.

A virtual machine's cores may be shared with other tenants.  On the
2-vCPU Xeon VM the baseline was recorded on, the same Python code ran up
to 1.6x slower from one second to the next, and a plain wall-clock
median moved by 14-29% (IQR over ten 12-second runs).  No run is long
enough to average that out.

So while a workload runs, a ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` seconds and times a fixed ~2 ms reference loop: an event
loop over a heap of 1,000 generators, the simulator's own mix.  A
sample's *speed* is ``NOMINAL_S`` divided by the loop's time.  The
seconds that the work between two ``perf_counter`` readings takes at
reference speed are its wall seconds, minus the time spent in the
sampler, times the mean speed of the samples taken meanwhile (work done
is the integral of speed over time).  A change that slows the workload
does not slow the reference loop, so it shows in full; a slower machine
slows both, and cancels.

The reference's working set (~0.5 MB) outgrows the per-core caches, so
the workload has evicted it by the next sample, as it evicts its own
data: the reference feels contention for the shared cache and memory
much as the workload does.  On that VM this cut the IQR of ten runs to
2-6%, where a 16-job loop that stays in the L1 cache left 4-10%.  The
price is that the reference's speed depends somewhat on the workload's
own memory traffic: relative to the L1-resident loop, it ran 18% faster
while interrupting ``gpfs_metadata`` than ``fig8_sweep``.  A change to
a workload's memory traffic therefore shows in ``wall_s`` only in part.

The sampler touches nothing of the program's and draws no random
numbers, so simulated results are unchanged; its share of the run, ~8%,
is subtracted.  Importing this module starts no timer.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import signal
import statistics
import time
from bisect import bisect_left

__all__ = ["INTERVAL_S", "MIN_SAMPLES", "NOMINAL_S", "ReferenceLoop", "Speedometer"]

#: seconds between samples while a workload runs
INTERVAL_S = 0.02
#: the reference loop's time at reference speed: about its median time
#: while interrupting a workload on the machine the baseline was recorded
#: on, so reported seconds read like that machine's wall seconds
NOMINAL_S = 0.0015
#: fewest samples an interval's speed is estimated from; a shorter
#: interval borrows its nearest neighbours' samples
MIN_SAMPLES = 8


class _Job:
    __slots__ = ("done", "nbytes")

    def __init__(self):
        self.done = 0
        self.nbytes = 0


def _worker(job: _Job, period: float):
    while True:
        got = yield period
        job.done += 1
        job.nbytes += got


class ReferenceLoop:
    """A fixed amount of interpreter work per call, shaped like an event
    loop: pop the earliest of ``n_jobs`` generators, resume it, push it
    back."""

    def __init__(self, n_jobs: int = 1000):
        self._seq = itertools.count()
        self._queue: list = []
        for i in range(n_jobs):
            gen = _worker(_Job(), 1.0 + (i % 7) * 0.25)
            self._queue.append((next(gen), next(self._seq), gen))
        heapq.heapify(self._queue)

    def __call__(self, steps: int = 1200) -> None:
        queue, seq = self._queue, self._seq
        for _ in range(steps):
            now, s, gen = heapq.heappop(queue)
            heapq.heappush(queue, (now + gen.send(s & 1023), next(seq), gen))


class Speedometer:
    """Samples machine speed while in its ``with`` block, and converts
    intervals measured meanwhile to seconds at reference speed."""

    def __init__(self):
        self._loop = ReferenceLoop()
        self._starts: list[float] = []
        self._speeds: list[float] = []
        self._spent: list[float] = []
        self._previous = None

    def sample(self, count: int = 1) -> None:
        """Time ``count`` reference loops now.  Outside the ``with`` block,
        ``MIN_SAMPLES`` of them after an interval give its speed."""
        for _ in range(count):
            t0 = time.perf_counter()
            collecting = gc.isenabled()
            gc.disable()  # the program's garbage is not the reference's cost
            try:
                a = time.perf_counter()
                self._loop()
                b = time.perf_counter()
            finally:
                if collecting:
                    gc.enable()
            self._starts.append(t0)
            self._speeds.append(NOMINAL_S / (b - a))
            self._spent.append(time.perf_counter() - t0)

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "Speedometer":
        self.sample(MIN_SAMPLES)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float) -> float:
        """Seconds the work done between ``perf_counter`` readings ``t0``
        and ``t1`` takes at reference speed, sampling excluded."""
        lo = bisect_left(self._starts, t0)
        hi = bisect_left(self._starts, t1)
        net = (t1 - t0) - sum(self._spent[lo:hi])
        if hi - lo < MIN_SAMPLES:
            lo = max(0, lo - (MIN_SAMPLES - (hi - lo) + 1) // 2)
            hi = min(len(self._starts), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        return net * statistics.fmean(self._speeds[lo:hi])
