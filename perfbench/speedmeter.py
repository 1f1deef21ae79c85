"""Host speed meter for the timed passes.

On a shared host the speed of the vCPU the benchmark runs on drifts; on a
2-vCPU Intel Xeon VM the same three seconds of mixed-small ops took from 0.8
to 1.2 times their median.  A fixed slice of the benchmark's own work, run
from a timer signal every INTERVAL_S in the same thread as the codec, samples
that speed while the ops run.  There, over three-second chunks, slice time and
codec time correlated at 0.94 to 0.98 while the speed swung, and a probe on
the other vCPU did not track the codec at all (0.2), so the sampling has to
happen in the measuring thread itself.

`clock()` is perf_counter minus the time spent in the slices, so op timings
exclude the meter.  `factor()` is REF_SLICE_S over the median slice time: a
time measured on a slow stretch times this factor is the time the op would
take at reference speed, the speed at which one slice takes REF_SLICE_S.
The slice is benchmark code only, so a change to the program never moves it.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
# about the median slice time during the ops on an Intel Xeon vCPU at 2.0 GHz
# of a quiet host
REF_SLICE_S = 0.00065

_A = np.random.default_rng(7).integers(1 << 40, size=4000)
_busy = 0.0
_samples: list[float] = []


def _work() -> None:
    s = np.sort(_A ^ 0x5A5A)
    np.searchsorted(s, _A[:1000])
    np.unique(_A % 997)
    d: dict[int, int] = {}
    for i in range(1500):
        k = i & 127
        d[k] = d.get(k, 0) + i


def work_slice() -> float:
    """One fixed slice of numpy sorting/probing and dict updates, the mix the
    codec runs, leaving no GC-tracked objects behind.  It runs once to warm
    the caches, so that the codec's cache footprint does not enter the
    sample, and is timed on the second run.  Returns its seconds."""
    _work()
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def clock() -> float:
    """perf_counter without the time the meter's slices took."""
    return perf_counter() - _busy


def _tick(signum, frame) -> None:
    global _busy
    t0 = perf_counter()
    _samples.append(work_slice())
    _busy += perf_counter() - t0


@contextmanager
def sampling():
    """Run a slice every INTERVAL_S of wall time inside the block; yields
    the list its slice times are appended to."""
    _samples.clear()
    old = signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield _samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def factor(slices) -> float:
    """Reference-speed factor from slice times taken over a measured span;
    the median keeps one preempted slice from moving it."""
    return REF_SLICE_S / statistics.median(slices)
