"""The cache of pending-write counters (§2.3.4).

"If the system reserved one counter for each memory location, it would
spend a large percentage of memory to store counters.  Fortunately,
there is a small number of counters that the protocol may need at any
time: only the non-zero counters are needed ...  Thus, we can use a
small fast cache to hold the values of these counters."

Behaviour, straight from the paper's bullet list:

- increment/decrement read the counter from the cache, modify it, and
  write it back;
- a counter that reaches zero is not written back — its entry is freed;
- a first-touch increment allocates a new entry; **if the cache is
  full, the processor stalls** until a reflected write frees one.

``entries=None`` models Telegraphos I, which has no cache (counters
are unbounded — the paper's first prototype omitted the cache and
relies on synchronization between conflicting writes).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.sim import Future

Key = Tuple[int, int, int]  # (home, gpage, in_page)


class CounterCache:
    """Per-node CAM of pending-write counters."""

    def __init__(self, entries: Optional[int], rmw_ns: int):
        if entries is not None and entries < 1:
            raise ValueError("counter cache needs at least one entry")
        self.entries = entries
        self.rmw_ns = rmw_ns
        self._counters: Dict[Key, int] = {}
        self._waiters: Deque[Future] = deque()
        # Statistics for the §2.3.4 sizing ablation.
        self.stalls = 0
        self.stall_ns = 0
        self.max_used = 0
        # Hit = the key was already resident (no allocation needed);
        # miss = a first-touch increment had to allocate an entry.
        self.hits = 0
        self.misses = 0

    def value(self, key: Key) -> int:
        return self._counters.get(key, 0)

    @property
    def increments(self) -> int:
        """Every increment is a hit or a miss."""
        return self.hits + self.misses

    @property
    def used(self) -> int:
        return len(self._counters)

    @property
    def full(self) -> bool:
        return self.entries is not None and len(self._counters) >= self.entries

    def increment(self, key: Key, sim=None):
        """Generator: bump the counter, stalling while the cache is
        full and the key is not already resident."""
        if key in self._counters:
            self.hits += 1
        else:
            self.misses += 1
            while self.full:
                # "If there is no free entry in the cache, the
                # processor is stalled.  Sooner or later, a cache entry
                # is bound to become free."
                self.stalls += 1
                waiter = Future()
                self._waiters.append(waiter)
                start = sim.now if sim is not None else 0
                yield waiter
                if sim is not None:
                    self.stall_ns += sim.now - start
        yield self.rmw_ns
        self._counters[key] = self._counters.get(key, 0) + 1
        if len(self._counters) > self.max_used:
            self.max_used = len(self._counters)

    def decrement(self, key: Key):
        """Generator: decrement; a counter hitting zero frees its entry
        and wakes one stalled incrementer."""
        yield self.rmw_ns
        current = self._counters.get(key, 0)
        if current <= 0:
            raise RuntimeError(
                f"pending-write counter underflow at {key}; "
                "a reflected write was double-counted"
            )
        if current == 1:
            del self._counters[key]
            if self._waiters:
                self._waiters.popleft().set_result(None)
        else:
            self._counters[key] = current - 1

    def nonzero_keys(self):
        return sorted(self._counters)
