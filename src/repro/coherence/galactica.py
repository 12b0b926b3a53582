"""The Galactica Net ring-update baseline (§2.4, [15]).

"The protocol links all processors that share a page into a sharing
ring.  If two processors update the same memory location at about the
same time, they will eventually notice it, because both updates will
traverse the ring, and they will eventually reach both updating
processors.  Then, the lowest priority processor will back off."

Each write is applied locally and circulates around the ring; every
node applies updates in arrival order.  When a writer's own update
returns and it saw a conflicting higher-priority update pass through
in the meantime, it backs off: it re-applies the winner's value and
circulates a *repair* carrying that value, so the final value agrees
everywhere.

The §2.4 criticism is reproduced faithfully: a third processor can
observe the sequence "1,2,1" — "a sequence that is not a valid program
sequence under any memory consistency model" — because the repair
re-delivers an already-overwritten value.  Priority is by node id
(lower id wins), standing in for Galactica's fixed node priorities.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.coherence.base import CoherenceEngine
from repro.network.packet import Packet, PacketKind

Key = Tuple[int, int, int]  # (home, gpage, in_page)


class GalacticaEngine(CoherenceEngine):
    protocol_name = "galactica"

    def __init__(self, node_id, directory, tracer=None):
        super().__init__(node_id, directory, tracer)
        #: My updates currently circulating: key -> {"value", "lost_to"}
        self._in_flight: Dict[Key, dict] = {}
        self.backoffs = 0

    # -- ring geometry -----------------------------------------------------

    def _next_in_ring(self, group, node: int) -> int:
        ring = group.copy_holders
        return ring[(ring.index(node) + 1) % len(ring)]

    # -- processor writes ----------------------------------------------------

    def on_local_store(self, hib, offset: int, value: int):
        self.stats["local_stores"] += 1
        group = self._group_for_offset(offset)
        in_page = offset % self.directory.page_bytes
        key = (group.home, group.gpage, in_page)
        yield from self._apply(hib, group, in_page, value,
                               origin=self.node_id, kind="local")
        if len(group.copy_holders) == 1:
            return
        self._in_flight[key] = {"value": value, "lost_to": None}
        op_id = hib.outstanding.open()
        yield from self._send_ring(hib, group, in_page, value,
                                   origin=self.node_id, op_id=op_id)

    def on_home_write(self, hib, offset: int, value: int, origin: int):
        """Direct remote writes behave like a local write by this node
        (it injects the update into the ring on the writer's behalf),
        except that the update completes no op of this node."""
        group = self._record_home(offset, value, origin)
        if group is None or len(group.copy_holders) == 1:
            return
        in_page = offset % self.directory.page_bytes
        yield from self._send_ring(hib, group, in_page, value,
                                   origin=self.node_id)

    # -- ring packets -----------------------------------------------------------

    def on_ring(self, hib, packet: Packet):
        self.stats["updates_received"] += 1
        home, gpage, in_page = self._unpack_update(packet)
        group = self.directory.group(home, gpage)
        key = (home, gpage, in_page)
        repair = packet.meta.get("repair", False)

        if packet.origin == self.node_id:
            # My update (or repair) completed its loop.
            if packet.op_id is not None:
                hib.outstanding.close(packet.op_id)
            entry = self._in_flight.pop(key, None)
            if not repair and entry is not None and entry["lost_to"] is not None:
                # Back off: a higher-priority write beat mine; restore
                # the winner's value and repair the ring (§2.4).
                self.backoffs += 1
                winner_value = entry["lost_to"][1]
                yield from self._apply(hib, group, in_page, winner_value,
                                       origin=self.node_id, kind="backoff")
                op_id = hib.outstanding.open()
                yield from self._send_ring(
                    hib, group, in_page, winner_value,
                    origin=self.node_id, op_id=op_id, repair=True,
                )
            return

        # A foreign update passing through: apply in arrival order.
        yield from self._apply(hib, group, in_page, packet.value,
                               origin=packet.origin,
                               kind="repair" if repair else "ring")
        if not repair:
            entry = self._in_flight.get(key)
            if entry is not None and packet.origin < self.node_id:
                # Conflicting higher-priority writer observed: I will
                # back off when my own update returns.
                entry["lost_to"] = (packet.origin, packet.value)
        # Forward around the ring.
        yield from self._forward(hib, group, in_page, packet)

    # -- helpers ------------------------------------------------------------------

    def _send_ring(self, hib, group, in_page, value, origin,
                   op_id=None, repair=False):
        dst = self._next_in_ring(group, self.node_id)
        self.stats["updates_sent"] += 1
        yield from hib.send(
            PacketKind.RING_UPDATE, dst, address=group.home_offset(in_page),
            value=value, op_id=op_id, origin=origin,
            meta={
                "home": group.home,
                "gpage": group.gpage,
                "in_page": in_page,
                "repair": repair,
            },
        )

    def _forward(self, hib, group, in_page, packet: Packet):
        dst = self._next_in_ring(group, self.node_id)
        yield from hib.send(
            PacketKind.RING_UPDATE, dst, address=packet.address,
            value=packet.value, op_id=packet.op_id, origin=packet.origin,
            meta=dict(packet.meta),
        )
