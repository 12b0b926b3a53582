"""Counters of outstanding remote operations + FENCE.

§2.2: "To facilitate the completion detection of remote accesses,
special counters of outstanding remote operations are also provided."

§2.3.5: "When a processor issues a MEMORY_BARRIER operation it is
stalled until all its outstanding write operations have been
completed."

Every operation that leaves the node and completes asynchronously —
direct remote writes, remote copies, eager-update multicasts,
counter-protocol writes awaiting their reflected write — increments
the counter when issued and decrements it when its completion notice
arrives.  A FENCE is a future that resolves when the counter reaches
zero.

Under fault injection (:mod:`repro.faults`) the completion machinery
is also the recovery machinery: a write the reliable transport gives
up on is taken off the count (:meth:`~repro.hib.hib.HIB.abandon_packet`)
so FENCE still resolves; the transport keeps its per-peer delivery
logs itself (:class:`~repro.hib.reliable.DestinationLog`).  An underflow —
one completion counted twice, exactly what a duplicated ack would
cause without sequence-number dedup — raises
:class:`OutstandingUnderflowError` instead of silently going negative.
"""

from __future__ import annotations

from typing import List

from repro.sim import Future


class OutstandingUnderflowError(RuntimeError):
    """A completion was counted that was never issued (double ack)."""


class OutstandingOps:
    """The outstanding-operation counter for one node."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._count = 0
        self._fences: List[Future] = []
        # Statistics.
        self.total_issued = 0
        self.max_outstanding = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def quiescent(self) -> bool:
        return self._count == 0

    def increment(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("increment must be non-negative")
        self._count += n
        self.total_issued += n
        if self._count > self.max_outstanding:
            self.max_outstanding = self._count

    def decrement(self, n: int = 1) -> None:
        if n > self._count:
            raise OutstandingUnderflowError(
                f"node {self.node_id}: outstanding-op underflow "
                f"({self._count} - {n}); a completion was double-counted"
            )
        self._count -= n
        if self._count == 0:
            fences, self._fences = self._fences, []
            for fence in fences:
                fence.set_result(None)

    def fence(self) -> Future:
        """A future resolving when the node is quiescent."""
        future = Future()
        if self._count == 0:
            future.set_result(None)
        else:
            self._fences.append(future)
        return future
