"""Restartable one-shot timers.

The reliable HIB transport (:mod:`repro.hib.reliable`) arms, pushes
back and cancels its retransmission timers many times over their
lives.  The kernel cannot retract an event, so a :class:`Timer` is a
cancel-and-reschedule timer without the cancel: every ``start`` posts
a fresh expiry like any other event, and a generation count turns
every expiry that a later ``start`` or a ``cancel`` superseded into a
no-op (DESIGN.md §7, "Timers").
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.kernel import Simulator


class Timer:
    """A one-shot timer that may be restarted or cancelled.

    ``callback`` runs at expiry with no arguments, as a plain event —
    spawn a process from it if the reaction needs to block.
    """

    __slots__ = ("sim", "callback", "name", "_deadline", "_generation")

    def __init__(self, sim: Simulator, callback: Callable[[], Any],
                 name: str = "timer"):
        self.sim = sim
        self.callback = callback
        self.name = name
        self._deadline: Optional[int] = None
        #: Bumped by every ``start`` and ``cancel``: only the expiry
        #: posted under the current generation may act.
        self._generation = 0

    @property
    def armed(self) -> bool:
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[int]:
        """Absolute expiry time, or ``None`` when disarmed."""
        return self._deadline

    def start(self, delay_ns: int) -> None:
        """Arm (or re-arm) the timer ``delay_ns`` from now; the delay
        is checked as :meth:`Simulator.schedule` checks its own."""
        if type(delay_ns) is not int:
            raise TypeError(
                f"timer delay must be a non-negative int, got {delay_ns!r}")
        if delay_ns < 0:
            raise ValueError("timer delay must be non-negative")
        generation = self._generation = self._generation + 1
        self._deadline = self.sim.now + delay_ns
        self.sim._post(delay_ns, self._fire, (generation,))

    def cancel(self) -> None:
        """Disarm; a pending expiry fires as a no-op."""
        self._generation += 1
        self._deadline = None

    def _fire(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._deadline = None
        self.callback()
