"""Host-speed probe: time measured on a shared host, scaled to one speed.

The machines this benchmark runs on are shared, and their speed drifts:
on a 2-vCPU Xeon virtual machine a fixed pure-Python loop ran up to
1.6x slower for minutes at a time, on both CPUs and in process CPU time
as much as in wall time, so no statistic over one run's repeats removes
it.  A :class:`SpeedProbe` therefore interrupts the work it measures
every :data:`INTERVAL_S` of wall time (``SIGALRM``) and runs a fixed
reference unit, :func:`probe_unit`: a small generator-driven event loop
like the simulator's kernel.  A measured interval is then reported as

    (wall time - time spent in probe units) * REFERENCE_S / median unit time

that is, in seconds at the host speed where one unit takes
:data:`REFERENCE_S`.  The unit calls no ``repro`` code, so a change to
the simulator moves the work's time but not the unit's.

Interval timers are per process: they do not survive ``fork``, and the
handler runs in the main thread.  The probe adds no thread.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from collections import deque
from typing import List

#: Wall time between two probe units.
INTERVAL_S = 0.03

#: Reference time of one probe unit: the scaled seconds are host seconds
#: at the speed where a unit takes this long (about the median unit on
#: the 2-vCPU Xeon above).
REFERENCE_S = 0.002

#: Event-loop steps in one unit.
LOOP_STEPS = 1500


def _loop(steps: int) -> None:
    heap: list = []
    seq = 0
    now = 0
    items = [deque() for _ in range(8)]
    waiting = [deque() for _ in range(8)]

    def producer(k):
        i = 0
        while True:
            yield ("put", (k * 5 + i) % 8, i)
            yield ("wait", 7 + (i * k) % 13)
            i += 1

    def consumer(c):
        total = 0
        while True:
            total += yield ("get", c)

    def schedule(delay, proc, value):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (now + delay, seq, proc, value))

    for k in range(8):
        schedule(0, producer(k), None)
        schedule(0, consumer(k), None)
    for _ in range(steps):
        now, _, proc, value = heapq.heappop(heap)
        kind, arg, *item = proc.send(value)
        if kind == "wait":
            schedule(arg, proc, None)
        elif kind == "put":
            if waiting[arg]:
                schedule(1, waiting[arg].popleft(), item[0])
            else:
                items[arg].append(item[0])
            schedule(1, proc, None)
        elif items[arg]:
            schedule(1, proc, items[arg].popleft())
        else:
            waiting[arg].append(proc)


def probe_unit() -> float:
    """Run one reference unit; returns its wall time in seconds."""
    began = time.perf_counter()
    _loop(LOOP_STEPS)
    return time.perf_counter() - began


class SpeedProbe:
    """Context manager: run :func:`probe_unit` every :data:`INTERVAL_S`
    while armed, recording each unit's time in :attr:`units`."""

    def __init__(self):
        self.units: List[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        # The unit frees all it allocates; with the collector off it
        # leaves the interrupted program's collection schedule as it was.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.units.append(probe_unit())
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self) -> float:
        """Seconds spent in probe units so far."""
        return sum(self.units)

    def scale(self) -> float:
        return scale(self.units)


def scale(units: List[float]) -> float:
    """Factor from host seconds to reference seconds: :data:`REFERENCE_S`
    over the median unit time (one unit is run now when there is none)."""
    return REFERENCE_S / statistics.median(units or [probe_unit()])
