"""Machine-speed calibration for the timed children.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same child, on the same inputs, took from 7.4 s to 9.8 s in
consecutive runs, and every network in it was slower or faster by the
same factor.  So a timed child also measures the machine.  A timer
signal interrupts the workload every INTERVAL_S seconds and runs one
chunk of fixed pure-Python work (exact fractions, tuple-keyed dicts,
frozensets, sorting: the kinds of work `a2webs` does) and times it.
The chunk time is taken out of the workload's time, and the mean of
REFERENCE_CHUNK_S / chunk time over the child is its speed relative to
the reference machine.  run.py reports the workload's time multiplied by
that speed: seconds at the reference machine's speed.  A change to
`a2webs` does not touch the chunk, so it moves the reported times as
much as it moves the workload's own; only the machine's drift cancels.

The collector is switched off while a chunk runs, so the chunks do not
move the library's collections.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# median chunk time on the reference machine (2 cores, Python 3.11.7)
REFERENCE_CHUNK_S = 0.0028

_clock = time.perf_counter


def _chunk_work() -> int:
    acc = Fraction(0)
    table: dict = {}
    seen = set()
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(i % 3 + 1, i % 11 + 1)
        key = tuple(sorted((i * 7919 % 31, i % 13, i % 3)))
        table[key] = table.get(key, 0) + i
        seen.add(frozenset(key))
    return len(sorted(table.items())) + len(seen) + acc.denominator % 7


class Calibrator:
    """Runs a timed chunk at start, every INTERVAL_S seconds, and at stop."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.stamps: list[float] = []  # work_clock() at the start of each chunk
        self.spent = 0.0  # seconds spent in chunks so far
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = _clock()
        self.stamps.append(t0 - self.spent)
        _chunk_work()
        took = _clock() - t0
        if collecting:
            gc.enable()
        self.chunks.append(took)
        self.spent += took

    def start(self) -> None:
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def sample(self, count: int) -> None:
        """Run count chunks back to back, for a child that has no workload."""
        for _ in range(count):
            self._tick()

    def work_clock(self) -> float:
        """perf_counter without the time spent in chunks."""
        return _clock() - self.spent

    def speed(self, start=None, end=None) -> float:
        """Mean speed relative to the reference machine, above 1 when
        faster: over every chunk, or over the chunks that ran from one
        interval before work_clock() time start to one interval after end."""
        chunks = self.chunks
        if start is not None:
            chunks = [d for t, d in zip(self.stamps, self.chunks) if start - INTERVAL_S <= t <= end + INTERVAL_S]
        return statistics.fmean(REFERENCE_CHUNK_S / d for d in chunks)
