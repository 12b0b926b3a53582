"""Plain eager-update multicast with no ownership — the Figure 2
baseline.

Every copy holder multicasts its writes directly to every other copy.
With a single writer this is the useful producer/consumer mechanism of
§2.2.7; with multiple concurrent writers to the same location there is
no serialization point, updates are applied in different orders at
different nodes, and "the pages may end up with different values"
(Figure 2) — which is exactly what
:mod:`repro.exp.experiments.f2_inconsistency` demonstrates.
"""

from __future__ import annotations

from repro.coherence.base import CoherenceEngine


class EagerUpdateEngine(CoherenceEngine):
    protocol_name = "eager"

    def on_local_store(self, hib, offset: int, value: int):
        self.stats["local_stores"] += 1
        group = self._group_for_offset(offset)
        in_page = offset % self.directory.page_bytes
        yield from self._apply(hib, group, in_page, value,
                               origin=self.node_id, kind="local")
        for node in group.copy_holders:
            if node == self.node_id:
                continue
            op_id = hib.outstanding.open()
            yield from self._update_copy(
                hib, node, group, in_page, value, origin=self.node_id,
                op_id=op_id,
            )

    def on_home_write(self, hib, offset: int, value: int, origin: int):
        """A direct remote write landed on a home page: propagate it to
        the other copies the same eager way, completing nothing."""
        group = self._record_home(offset, value, origin)
        if group is None or group.home != self.node_id:
            return
        in_page = offset % self.directory.page_bytes
        for node in group.copy_holders:
            if node == self.node_id:
                continue
            yield from self._update_copy(
                hib, node, group, in_page, value, origin=origin,
            )

    def on_update(self, hib, packet):
        self.stats["updates_received"] += 1
        home, gpage, in_page = self._unpack_update(packet)
        group = self.directory.group(home, gpage)
        if group is None or not group.holds_copy(self.node_id):
            self.stats["updates_ignored"] += 1
            yield 0
            return
        yield from self._apply(hib, group, in_page, packet.value,
                               origin=packet.origin, kind="update")
        if packet.op_id is not None:
            # A counted update completes (for FENCE) when applied at
            # the destination copy.
            yield from hib.ack(packet)
