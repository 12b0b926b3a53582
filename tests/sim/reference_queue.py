"""The deque-and-future queue, kept as a test oracle.

This is :class:`repro.sim.BoundedQueue` as it was before the queue got
its callback entry points and list storage: items, blocked putters and
waiting getters in three deques, and a :class:`~repro.sim.Future` for
every put or get that has to wait.  A callback consumer registers on
the waitable ``get()`` returns (``get().add_callback(...)``), as the
links and switch inputs once did.  The differential harness
(``test_queue_equivalence.py``) runs the same scripts through both and
requires identical action logs.  Do not optimise it: its value is
being independent of the code it checks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim import Future, Waitable


def _done(value: Any = None) -> Future:
    """A completed future: the token for a put or get satisfied at
    once."""
    future = Future()
    future.set_result(value)
    return future


class ReferenceQueue:
    """A FIFO with capacity and blocking semantics.

    ``put(item)`` and ``get()`` return :class:`Future`\\ s to be
    yielded on by simulation processes::

        yield queue.put(packet)      # blocks while the queue is full
        packet = yield queue.get()   # blocks while the queue is empty

    ``try_put`` is the non-blocking put, for hardware models that
    must never stall on a full buffer.
    """

    def __init__(self, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        # Blocked putters hold (future, item) until space opens up.
        self._putters: Deque[tuple] = deque()
        self._getters: Deque[Future] = deque()
        # Occupancy statistics (sampled at each state change).
        self.max_occupancy = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    # -- blocking interface ------------------------------------------------

    def put(self, item: Any) -> Waitable:
        """Enqueue ``item``; the returned waitable resolves once it is
        accepted — already complete when accepted immediately."""
        if self._getters and not self._items:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            self.total_puts += 1
            getter.set_result(item)
            return _done()
        if len(self._items) < self.capacity:
            # _account_put inlined (put is on the per-packet hot path).
            self._items.append(item)
            self.total_puts += 1
            occupancy = len(self._items)
            if occupancy > self.max_occupancy:
                self.max_occupancy = occupancy
            return _done()
        future = Future()
        self._putters.append((future, item))
        return future

    def get(self) -> Waitable:
        """Dequeue the oldest item; the returned waitable resolves with
        it — already complete when an item was waiting."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                self._admit_blocked_putter()
            return _done(item)
        future = Future()
        self._getters.append(future)
        return future

    # -- non-blocking interface ---------------------------------------------

    def try_put(self, item: Any) -> bool:
        """Enqueue if space is available; returns success."""
        if self._getters and not self._items:
            getter = self._getters.popleft()
            self._account_put()
            getter.set_result(item)
            return True
        if self.full:
            return False
        self._items.append(item)
        self._account_put()
        return True

    # -- internals ------------------------------------------------------------

    def _admit_blocked_putter(self) -> None:
        if self._putters and not self.full:
            future, item = self._putters.popleft()
            if self._getters and not self._items:
                getter = self._getters.popleft()
                self._account_put()
                getter.set_result(item)
            else:
                self._items.append(item)
                self._account_put()
            future.set_result(None)

    def _account_put(self) -> None:
        self.total_puts += 1
        occupancy = len(self._items)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
