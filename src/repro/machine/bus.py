"""Arbitrated buses.

Two instances per workstation: the **memory bus** (CPU ↔ DRAM) and the
**TurboChannel** I/O bus (CPU ↔ HIB, §2.1).  A bus serialises
transactions: one master at a time, FIFO arbitration, a fixed
arbitration cost plus a caller-supplied occupancy.

The TurboChannel model is *split-transaction* for blocking remote
reads: the request occupies the bus for an address cycle, the bus is
released while the HIB waits for the network reply, and the data
returns in a second occupancy.  (The real TC read to a slow device is
a stalled/retried read; split-transaction gives the same latency
composition without letting one node's blocked read strangle unrelated
incoming DMA traffic — which matters in the Telegraphos II main-memory
mapping.)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim import Future, Simulator


class Bus:
    """FIFO-arbitrated shared bus.

    Use from a simulation process::

        yield from bus.transact(occupancy_ns)

    or acquire/release explicitly for multi-phase transactions.
    """

    def __init__(self, sim: Simulator, name: str, arb_ns: int):
        self.sim = sim
        self.name = name
        self.arb_ns = arb_ns
        self._owner: Optional[object] = None
        #: Masters waiting for the bus, oldest first: (future,
        #: enqueued-at).  Few wait at once, so a list serves, at a
        #: fraction of an empty deque's size.
        self._waiters: List[Tuple[Future, int]] = []
        self.transactions = 0
        self.busy_ns = 0
        # Arbitration contention: how often a master found the bus
        # held, and the total time masters spent queued for it.
        self.arb_waits = 0
        self.wait_ns = 0

    # -- explicit interface --------------------------------------------

    def acquire(self, who: object = None) -> Future:
        """Future resolving when this caller owns the bus (after the
        arbitration delay)."""
        future = Future()
        if self._owner is None:
            self._owner = who or future
            self.sim._post(self.arb_ns, future.set_result, (None,))
        else:
            self.arb_waits += 1
            self._waiters.append((future, self.sim.now))
        return future

    def release(self) -> None:
        if self._owner is None:
            raise RuntimeError(f"{self.name}: release without owner")
        self._owner = None
        if self._waiters:
            future, enqueued = self._waiters.pop(0)
            self.wait_ns += self.sim.now - enqueued
            self._owner = future
            self.sim._post(self.arb_ns, future.set_result, (None,))

    # -- process-style interface ----------------------------------------

    def transact(self, occupancy_ns: int):
        """Generator: arbitrate, hold the bus for ``occupancy_ns``,
        release.  ``yield from`` it inside a process."""
        yield self.acquire()
        try:
            yield occupancy_ns
            self.transactions += 1
            self.busy_ns += occupancy_ns
        finally:
            self.release()

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    @property
    def idle(self) -> bool:
        return self._owner is None
