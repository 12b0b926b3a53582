"""The cancel-and-reschedule timer, kept as a test oracle.

This is the timer semantics :class:`repro.sim.Timer` must reproduce:
every ``start`` posts a fresh expiry, under the ``(time, seq)`` key
that posting takes at that moment, and a generation count turns every
superseded or cancelled expiry into a no-op.  Nothing is retracted
from the queue, so it needs no kernel cancellation, but each re-arm
leaves one more expiry pending.  Do not optimise it: its value is
being independent of the code it checks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import Simulator


class ReferenceTimer:
    """API-identical to :class:`repro.sim.Timer`."""

    def __init__(self, sim: Simulator, callback: Callable[[], Any],
                 name: str = "timer"):
        self.sim = sim
        self.callback = callback
        self.name = name
        self._deadline: Optional[int] = None
        self._generation = 0

    @property
    def armed(self) -> bool:
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[int]:
        return self._deadline

    def start(self, delay_ns: int) -> None:
        if type(delay_ns) is not int:
            raise TypeError(
                f"timer delay must be a non-negative int, got {delay_ns!r}")
        if delay_ns < 0:
            raise ValueError("timer delay must be non-negative")
        self._generation += 1
        self._deadline = self.sim.now + delay_ns
        self.sim._post(delay_ns, self._fire, (self._generation,))

    def cancel(self) -> None:
        self._generation += 1
        self._deadline = None

    def _fire(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._generation += 1
        self._deadline = None
        self.callback()
