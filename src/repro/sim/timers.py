"""Restartable one-shot timers.

The reliable HIB transport (:mod:`repro.hib.reliable`) arms, pushes
back and cancels its retransmission timers many times over their
lives.  The kernel cannot retract an event, so a :class:`Timer` keeps
its deadline beside at most one *live* expiry and lets every other
expiry it filed fire as a no-op.  Each callback still runs under the
exact ``(time, seq)`` key that a cancel-and-reschedule timer's event
would have had (DESIGN.md §7, "Timers without cancellation").
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.sim.kernel import Simulator


class Timer:
    """A one-shot timer that may be restarted or cancelled.

    ``callback`` runs at expiry with no arguments, as a plain event —
    spawn a process from it if the reaction needs to block.
    """

    __slots__ = ("sim", "callback", "name", "_deadline", "_seq", "_live",
                 "_run_from", "_mark")

    def __init__(self, sim: Simulator, callback: Callable[[], Any],
                 name: str = "timer"):
        self.sim = sim
        self.callback = callback
        self.name = name
        #: The armed deadline, and the seq of the key it fires under.
        self._deadline: Optional[int] = None
        self._seq = -1
        #: Key of the one filed expiry that may act.  While armed it is
        #: at or before the deadline, and at it only under ``_seq``.
        self._live: Optional[Tuple[int, int]] = None
        #: Seqs ``_run_from`` .. ``_mark - 1`` were reserved here back
        #: to back, with no other seq taken between them.
        self._run_from = -1
        self._mark = -1

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
        sim = self.sim
        deadline = self._deadline = sim.now + delay_ns
        live = self._live
        seq = sim._seq
        if (live is not None and live[0] == deadline and seq == self._mark
                and self._run_from <= live[1]):
            # Only this timer's own reservations lie between the live
            # key and a fresh one: nothing can sort between them.
            self._seq = live[1]
            return
        # Reserve the seq a post would take now.  File under it only
        # if this deadline is at or before the live expiry's time; a
        # later one waits for the live expiry to fire and re-file.
        sim._seq = seq + 1
        if seq != self._mark:
            self._run_from = seq
        self._seq = seq
        self._mark = seq + 1
        if live is None or deadline <= live[0]:
            self._file(deadline, seq)

    def cancel(self) -> None:
        """Disarm; a pending expiry fires as a no-op."""
        self._deadline = None

    def _file(self, time: int, seq: int) -> None:
        self._live = (time, seq)
        sim = self.sim
        sim._push_back((time, seq, self._fire, (seq,)))
        if sim.hooks is not None:
            sim.hooks.on_schedule(sim, time, self._fire)

    def _fire(self, seq: int) -> None:
        live = self._live
        if live is None or live[1] != seq:
            return
        deadline = self._deadline
        if deadline is None:
            self._live = None
        elif deadline > live[0]:
            self._file(deadline, self._seq)
        else:
            self._live = None
            self._deadline = None
            self.callback()
