"""Bounded FIFO queues with blocking put/get.

Every back-pressured buffer in the Telegraphos model is one of these:
the HIB outgoing/incoming FIFOs, link credit buffers, switch input
queues.  Back-pressure — the paper's switches use "back-pressured flow
control" (§2.1) — falls out naturally: a putter does not continue until
its item has been accepted, and items are only accepted when there is
buffer space.

Processes ``yield`` on ``put`` and ``get``.  The fabric's callback
state machines call ``put_then`` and ``get_then``, whose continuations
run inside the put or get that completes them, where a waitable's plain
callback would: a hop through a link or switch input makes no waitable.

The queue preserves FIFO order both for items and for blocked putters/
getters, which is what makes per-link in-order delivery provable.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.sim.kernel import Future, Waitable


class BoundedQueue:
    """A FIFO with capacity and blocking semantics.

    ``put(item)`` and ``get()`` return waitables for processes::

        yield queue.put(packet)      # blocks while the queue is full
        packet = yield queue.get()   # blocks while the queue is empty

    ``put_then`` and ``get_then`` are the same operations for
    callbacks; ``try_put`` never blocks, for hardware models that must
    never stall on a full buffer.

    One list holds the waiters: getters ``fn(item)`` while the queue is
    empty, blocked putters ``(then, item)`` while it is full, never
    both (capacity is at least 1).  A waiting process is its
    :class:`Future`'s ``set_result``.
    """

    __slots__ = ("capacity", "name", "_items", "_waiters")

    def __init__(self, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: List[Any] = []
        self._waiters: List[Any] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    # -- non-blocking and callback interface ---------------------------------

    def try_put(self, item: Any) -> bool:
        """Accept ``item`` if there is room, handing it to the oldest
        waiting getter when one waits; returns whether it was accepted."""
        items = self._items
        if len(items) >= self.capacity:
            return False
        if items or not self._waiters:
            items.append(item)
        else:
            self._waiters.pop(0)(item)
        return True

    def put_then(self, item: Any, then: Callable[[], Any]) -> bool:
        """Put ``item``: ``True`` when it is accepted now, else ``False``
        and ``then()`` runs inside the get that admits it."""
        if self.try_put(item):
            return True
        self._waiters.append((then, item))
        return False

    def get_then(self, fn: Callable[[Any], Any]) -> None:
        """Take the oldest item and call ``fn(item)``: now, once the
        oldest blocked putter is admitted, or inside the put that
        brings an item."""
        if self._items:
            fn(self._take())
        else:
            self._waiters.append(fn)

    # -- process interface ---------------------------------------------------

    def put(self, item: Any) -> Waitable:
        """Enqueue ``item``; the returned future resolves once it is
        accepted, and is already complete when it is accepted at once."""
        future = Future()
        if self.try_put(item):
            future.set_result()
        else:
            self._waiters.append((future.set_result, item))
        return future

    def get(self) -> Waitable:
        """Dequeue the oldest item; the returned future resolves with
        it, and is already complete when an item was waiting."""
        future = Future()
        if self._items:
            future.set_result(self._take())
        else:
            self._waiters.append(future.set_result)
        return future

    def _take(self) -> Any:
        """Remove and return the oldest item.  The oldest blocked
        putter's item takes its place, and its continuation runs before
        the getter's."""
        items = self._items
        item = items.pop(0)
        if self._waiters:
            then, admitted = self._waiters.pop(0)
            items.append(admitted)
            then()
        return item
