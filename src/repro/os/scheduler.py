"""Preemptive round-robin timeslicing.

Exists to exercise the §2.2.4 hazard: "The sequence of write and read
operations that pass the desirable information to the HIB should
execute atomically ... the sequence of instructions that execute the
special operation, should either not be interrupted, or if
interrupted, resumed appropriately."

The scheduler preempts at every quantum, charging the context-switch
cost.  Under Telegraphos I the CPU's PAL sequences defer the switch;
under Telegraphos II launches are interruptible and the contexts carry
the state across the switch — both paths are tested in
``tests/os/test_scheduler.py``.
"""

from __future__ import annotations

from repro.machine.cpu import CPU
from repro.params import TimingParams
from repro.sim import Simulator


class RoundRobinScheduler:
    """Timeslices the programs of one CPU."""

    def __init__(
        self,
        sim: Simulator,
        timing: TimingParams,
        cpu: CPU,
        quantum_ns: int = 1_000_000,
    ):
        if quantum_ns <= 0:
            raise ValueError("quantum must be positive")
        self.sim = sim
        self.timing = timing
        self.cpu = cpu
        self.quantum_ns = quantum_ns
        self.switches = 0
        self._running = True
        self._process = sim.spawn(self._tick(), name=f"sched{cpu.node_id}")

    def stop(self) -> None:
        self._running = False

    def _tick(self):
        # Let programs start before the first quantum elapses.
        yield self.quantum_ns
        while True:
            if not self._running:
                return
            if not self.cpu.programs:
                # All programs finished: stop ticking so the event queue
                # can drain.  (Create a fresh scheduler for a new
                # program phase.)
                self._running = False
                return
            target = self._pick_next()
            if target is not None:
                yield self.timing.os_cswitch_ns
                # The target may have finished during the switch cost
                # (and its name may even have been reused since).
                if self.cpu.programs.get(target.name) is target:
                    self.switches += 1
                    self.cpu.switch_to(target)
            yield self.quantum_ns

    def _pick_next(self):
        """Next runnable program after the current one, wrapping —
        true round-robin order by creation id."""
        others = sorted(
            (ctx for ctx in self.cpu.programs.values() if ctx is not self.cpu.current),
            key=lambda c: c.context_id,
        )
        if not others:
            return None
        current_id = self.cpu.current.context_id if self.cpu.current else -1
        for ctx in others:
            if ctx.context_id > current_id:
                return ctx
        return others[0]
