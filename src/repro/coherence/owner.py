"""Owner-serialized updates (§2.3.1–§2.3.2) — correct ordering, two
flavours of read anomaly.

All updates to a page are forwarded to its owner, which applies them
to the home copy in arrival order and multicasts *reflected writes* to
every copy "at the same time", in that order.  In-order delivery per
(owner → sharer) pair then guarantees every copy sees the same update
sequence — this fixes Figure 2.

``apply_local`` selects which §2.3.2 problem you get:

- ``apply_local=False``: the writer's own copy is only updated by the
  reflected write, so a processor that writes M=1 and immediately
  reads M can read the *old* value (problem 1 — "The processor reads
  something different from what it just wrote").
- ``apply_local=True``: the write is applied locally at once *and*
  reflected; now the reflection of an older write can overwrite a
  newer local write (problem 2 — the M=2/M=3 scenario).

The counter protocol (:mod:`repro.coherence.counter_protocol`)
inherits this engine and fixes both.
"""

from __future__ import annotations

from repro.coherence.base import CoherenceEngine


class OwnerUpdateEngine(CoherenceEngine):
    def __init__(self, node_id, directory, tracer=None, apply_local=False):
        super().__init__(node_id, directory, tracer)
        self.apply_local = apply_local

    @property
    def protocol_name(self) -> str:  # type: ignore[override]
        return "owner-local" if self.apply_local else "owner-stale"

    # -- processor writes ------------------------------------------------

    def on_local_store(self, hib, offset: int, value: int):
        self.stats["local_stores"] += 1
        group = self._group_for_offset(offset)
        in_page = offset % self.directory.page_bytes
        if self.node_id == group.home:
            # The owner's own writes are already serialized: apply to
            # the home copy and reflect to the sharers.
            yield from self._apply(hib, group, in_page, value,
                                   origin=self.node_id, kind="local")
            yield from self._reflect(hib, group, in_page, value,
                                     origin=self.node_id)
            return
        # A non-owner: forward to the owner (§2.3.1 "the write
        # operation must be forwarded to the owner of the page").
        if self.apply_local:
            yield from self._local_apply_before_forward(hib, group, in_page, value)
        op_id = hib.outstanding.open()
        yield from self._update_copy(
            hib, group.home, group, in_page, value, origin=self.node_id,
            op_id=op_id, meta={"to_owner": True},
        )

    def _local_apply_before_forward(self, hib, group, in_page, value):
        yield from self._apply(hib, group, in_page, value,
                               origin=self.node_id, kind="local")

    def on_home_write(self, hib, offset: int, value: int, origin: int):
        """Direct remote write applied at the home page: reflect."""
        group = self._record_home(offset, value, origin)
        if group is None or group.home != self.node_id:
            return
        in_page = offset % self.directory.page_bytes
        # Reflect to every copy; the origin was already acked by the
        # write path, so the reflections carry no op id.
        yield from self._reflect(hib, group, in_page, value, origin=origin)

    # -- protocol packets ----------------------------------------------------

    def on_update(self, hib, packet):
        self.stats["updates_received"] += 1
        home, gpage, in_page = self._unpack_update(packet)
        group = self.directory.group(home, gpage)
        if packet.meta.get("to_owner"):
            if group.home != self.node_id:
                raise RuntimeError(
                    f"node {self.node_id} received owner-bound update for "
                    f"page owned by {group.home}"
                )
            # Serialize: apply at home in arrival order, then multicast
            # the reflected write to every copy — including the writer,
            # whose op it completes.
            yield from self._apply(hib, group, in_page, packet.value,
                                   origin=packet.origin, kind="serialize")
            yield from self._reflect(hib, group, in_page, packet.value,
                                     origin=packet.origin, op_id=packet.op_id)
            return
        # A reflected write arriving at a copy holder.
        yield from self._handle_reflection(hib, group, in_page, packet)

    def _handle_reflection(self, hib, group, in_page, packet):
        if packet.origin == self.node_id and packet.op_id is not None:
            hib.outstanding.close(packet.op_id)
        # Both §2.3.2 variants apply every reflection unconditionally —
        # that is precisely what the counter protocol will refine.
        yield from self._apply(hib, group, in_page, packet.value,
                               origin=packet.origin, kind="reflect")

    # -- helpers ----------------------------------------------------------------

    def _reflect(self, hib, group, in_page, value, origin, op_id=None):
        """Owner-side multicast of a serialized update to the other
        copies; ``op_id`` is the forwarded write's, which its
        reflection to ``origin`` completes."""
        for node in group.copy_holders:
            if node == self.node_id:
                continue
            yield from self._update_copy(
                hib, node, group, in_page, value, origin=origin, op_id=op_id,
            )
