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
from repro.network.packet import PacketKind


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
            hib.outstanding.increment()
            yield from self._update_copy(
                hib, node, group, in_page, value, origin=self.node_id
            )

    def on_home_write(self, hib, offset: int, value: int, origin: int):
        """A direct remote write landed on a home page: propagate it to
        the other copies the same eager way."""
        group = self._record_home(offset, value, origin)
        if group is None or group.home != self.node_id:
            return
        in_page = offset % self.directory.page_bytes
        for node in group.copy_holders:
            if node == self.node_id:
                continue
            yield from self._update_copy(
                hib, node, group, in_page, value, origin=origin,
                meta={"no_ack": True},
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
        if not packet.meta.get("no_ack"):
            yield from self._ack_origin(hib, packet)

    def _ack_origin(self, hib, packet):
        """Updates complete (for FENCE accounting) when applied at the
        destination copy."""
        if packet.origin == self.node_id:
            hib.outstanding.decrement()
            return
        yield from hib.send(PacketKind.WRITE_ACK, packet.origin)
