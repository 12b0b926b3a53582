"""The operation ledger: counters of outstanding remote operations + FENCE.

§2.2: "To facilitate the completion detection of remote accesses,
special counters of outstanding remote operations are also provided."

§2.3.5: "When a processor issues a MEMORY_BARRIER operation it is
stalled until all its outstanding write operations have been
completed."

:class:`OutstandingOps` records every op a node starts and alone
decides when it is finished.  Every op id comes from its one counter:
:meth:`~OutstandingOps.open` starts a *counted* op, one that completes
asynchronously and holds FENCE (a direct remote write, a remote copy,
an owner-bound or eager UPDATE, a ring update), and
:meth:`~OutstandingOps.request` a blocking read or atomic.  The id
travels in the op's packets; a packet with ``op_id=None`` completes
nothing.  A FENCE is a future that resolves when no counted op is open.

Each id finishes once, by whichever report comes first: its completion
notice (:meth:`~OutstandingOps.close`) or the reliable transport giving
up on its packet (:meth:`~OutstandingOps.abandon`, from
:meth:`~repro.hib.hib.HIB.abandon_packet`).  The later report is
dropped.  A completion for an id never issued or already closed, what a
duplicated ack would cause without sequence-number dedup, raises
:class:`OutstandingUnderflowError` instead of counting twice; so does
one of the wrong kind, a reply for a counted op or an ack for a
request.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim import Future

_MISSING = object()
#: :meth:`OutstandingOps.close` without a value: the notice is an ack.
_ACK = object()


class OutstandingUnderflowError(RuntimeError):
    """A completion was reported for an op that is not open (double ack)."""


class OutstandingOps:
    """One node's operation ledger."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._count = 0
        self._last_id = 0
        #: Open ops: id -> the blocked requester's future, or ``None``
        #: for a counted op.
        self._open: Dict[int, Optional[Future]] = {}
        #: Abandoned ids whose late completion notice has not arrived
        #: (it may never) -> whether the op was a request.
        self._abandoned: Dict[int, bool] = {}
        self._fences: List[Future] = []
        # Statistics of counted ops.
        self.total_issued = 0
        self.max_outstanding = 0

    @property
    def count(self) -> int:
        """Counted ops open: what FENCE waits for."""
        return self._count

    @property
    def quiescent(self) -> bool:
        return self._count == 0

    def open(self) -> int:
        """Start a counted op; returns its id."""
        op_id = self._last_id = self._last_id + 1
        self._open[op_id] = None
        count = self._count = self._count + 1
        self.total_issued += 1
        if count > self.max_outstanding:
            self.max_outstanding = count
        return op_id

    def request(self) -> Tuple[int, Future]:
        """Start a blocking request; returns its id and the future its
        reply resolves."""
        op_id = self._last_id = self._last_id + 1
        future = self._open[op_id] = Future()
        return op_id, future

    def close(self, op_id: int, value: Any = _ACK) -> None:
        """The completion notice of ``op_id`` arrived: an ack (no
        ``value``) closes a counted op, a reply closes a request with
        the ``value`` it carries.  A notice for an op never issued,
        already closed or of the other kind raises
        :class:`OutstandingUnderflowError` and changes nothing."""
        reply = value is not _ACK
        entry = self._open.get(op_id, _MISSING)
        if entry is _MISSING:
            if self._abandoned.get(op_id) is reply:
                del self._abandoned[op_id]
                return
        elif (entry is not None) is reply:
            del self._open[op_id]
            if reply:
                entry.set_result(value)
            else:
                self._uncount()
            return
        raise OutstandingUnderflowError(
            f"node {self.node_id}: outstanding-op underflow: "
            + (f"a reply for op {op_id}, which is not an open request"
               if reply else
               f"an ack for op {op_id}, which is not an open counted op")
        )

    def abandon(self, op_id: int, error: BaseException) -> None:
        """The transport gave up on a packet of ``op_id``: a request
        fails with ``error``, a counted op stops holding FENCE.  An op
        its completion notice already closed stays closed."""
        future = self._open.pop(op_id, _MISSING)
        if future is _MISSING:
            if not 0 < op_id <= self._last_id:
                raise OutstandingUnderflowError(
                    f"node {self.node_id}: abandoned op {op_id} was never "
                    f"issued"
                )
            return
        self._abandoned[op_id] = future is not None
        if future is None:
            self._uncount()
        else:
            future.set_exception(error)

    def _uncount(self) -> None:
        self._count -= 1
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
