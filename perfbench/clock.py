"""A clock that measures time at the machine's full speed.

The machines this benchmark runs on are shared: the same computation runs
up to twice as slow for stretches of about a second while other work holds
the processor.  Every 20 ms a timer signal interrupts the process and times
a fixed pure-Python graph traversal that shares no code with `fot` (the
probe; of the probes tried, its slowdown was closest to that of the ops).
The clock advances by wall time divided by the current probe time (the
median of the last three probes), so a slow stretch advances it less.  It
reads in seconds at the speed where the probe takes PROBE_S, its time at
full speed on the machine the benchmark was written on: a fixed reference,
not the fastest speed of the run itself, because some runs never see the
full speed.  Probe time itself is not counted.

The probe runs in this process and thread.  Work that slows this processor
from outside the measured code, such as busy worker processes, slows the
probe too and is discounted; compare the raw times printed alongside.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.02
PROBE_S = 0.0004
PROBE_GRAPH = {v: [(7 * v + k) % 300 for k in range(4)] for v in range(300)}


def _probe() -> None:
    for _ in range(6):
        seen, stack = {0}, [0]
        while stack:
            for w in PROBE_GRAPH[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)


class CalibratedClock:
    """Context manager; `now()` reads the clock in seconds at full speed."""

    def __init__(self):
        self.units = 0.0
        self.mark = 0.0
        self.probes: list[float] = []
        self.speed = 1.0
        self._previous = None

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        self.units += (start - self.mark) / self.speed
        collecting = gc.isenabled()
        gc.disable()  # garbage of the measured code is collected in its own time
        try:
            _probe()
        finally:
            end = time.perf_counter()
            if collecting:
                gc.enable()
        self.probes.append(end - start)
        self.speed = statistics.median(self.probes[-3:])
        self.mark = end

    def __enter__(self) -> "CalibratedClock":
        self.mark = time.perf_counter()
        self._tick()
        self.units = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        while True:  # a tick between the reads below would mix two intervals
            ticks = len(self.probes)
            units = self.units + (time.perf_counter() - self.mark) / self.speed
            if len(self.probes) == ticks:
                return units * PROBE_S
