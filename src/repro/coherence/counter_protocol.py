"""The counter-based update coherence protocol — the paper's novel
contribution (§2.3.3).

Rules, verbatim from the paper:

1. "When a processor executes a store to its local copy of a
   shared-memory page it does not own, it (i) updates its local copy
   of the page, (ii) increments the counter by one, and (iii) sends
   the new value to the owner of the page for multicasting."
2. "When a node P receives a write from the owner of page, that is
   the result of one of P's own writes, P ignores the write and
   decrements the counter."
3. "When a node receives any other write, for a memory location whose
   counter is non-zero, it ignores the write, without modifying the
   counter."
4. "When a processor issues a read to a shared-memory page, the read
   proceeds normally."

Rules 2 and 3 make each node see a *subsequence* of the owner's
serialization order (verified mechanically by
:class:`~repro.coherence.checker.CoherenceChecker`), so every readable
value is always valid — fixing both §2.3.2 anomalies at the cost of
one counter read-modify-write per forwarded write and per returning
reflection.
"""

from __future__ import annotations

from typing import Optional

from repro.coherence.counter_cache import CounterCache
from repro.coherence.owner import OwnerUpdateEngine


class CounterProtocolEngine(OwnerUpdateEngine):
    """Owner serialization + local apply + pending-write counters."""

    def __init__(
        self,
        node_id,
        directory,
        tracer=None,
        cache_entries: Optional[int] = 32,
        rmw_ns: int = 160,
    ):
        super().__init__(node_id, directory, tracer, apply_local=True)
        self.counters = CounterCache(cache_entries, rmw_ns)

    @property
    def protocol_name(self) -> str:  # type: ignore[override]
        return "telegraphos"

    # Rule 1(ii): increment the pending-write counter before the local
    # apply + forward that OwnerUpdateEngine(apply_local=True) does.
    def _local_apply_before_forward(self, hib, group, in_page, value):
        key = (group.home, group.gpage, in_page)
        yield from self.counters.increment(key, sim=hib.sim)
        yield from self._apply(hib, group, in_page, value,
                               origin=self.node_id, kind="local")

    # Rules 2 and 3: filter reflections instead of blindly applying.
    def _handle_reflection(self, hib, group, in_page, packet):
        key = (group.home, group.gpage, in_page)
        if packet.origin == self.node_id and packet.op_id is not None:
            # Rule 2: my own counted write coming back — ignore,
            # decrement.  The reflection of a direct write I made
            # through the remote window carries no op id: it completes
            # nothing and is any other write (Rule 3, or applied).
            hib.outstanding.close(packet.op_id)
            yield from self.counters.decrement(key)
            self.stats["updates_ignored"] += 1
            self._record(group, in_page, packet.value,
                         packet.origin, kind="own-reflect-ignored")
            return
        if self.counters.value(key) > 0:
            # Rule 3: older than my pending write — ignore, keep count.
            self.stats["updates_ignored"] += 1
            yield self.counters.rmw_ns  # the lookup still costs a CAM access
            self._record(group, in_page, packet.value,
                         packet.origin, kind="foreign-ignored")
            return
        yield from self._apply(hib, group, in_page, packet.value,
                               origin=packet.origin, kind="reflect")
