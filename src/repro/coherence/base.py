"""The coherence-engine interface the HIB calls into.

One engine instance attaches to each node's HIB
(``hib.coherence = engine``).  The HIB invokes:

- :meth:`CoherenceEngine.handles_page` — does this local backend page
  belong to a shared group under this protocol?
- :meth:`CoherenceEngine.on_local_store` — the local processor stored
  to a protocol-managed page (instead of the HIB's default write
  path).
- :meth:`CoherenceEngine.on_home_write` — a write was applied to a
  home page (direct remote write or home atomic); the owner may need
  to propagate it.
- :meth:`CoherenceEngine.on_update` / :meth:`CoherenceEngine.on_ring`
  — protocol packets arrived from the network.

All hook bodies are simulation generators (they may charge time and
send packets).  The engine records every value applied to every copy
through :meth:`_apply`, which is what the
:class:`~repro.coherence.checker.CoherenceChecker` audits.
"""

from __future__ import annotations

from typing import Optional

from repro.coherence.directory import PageGroup, SharingDirectory
from repro.network.packet import PacketKind
from repro.sim import Tracer


class CoherenceEngine:
    """Base engine: shared plumbing, no propagation (a page group
    under the base engine behaves like unshared memory — subclasses
    override the hooks)."""

    protocol_name = "none"

    def __init__(
        self,
        node_id: int,
        directory: SharingDirectory,
        tracer: Optional[Tracer] = None,
    ):
        self.node_id = node_id
        self.directory = directory
        self.tracer = tracer
        # Statistics common to all protocols.
        self.stats = {
            "local_stores": 0,
            "updates_sent": 0,
            "updates_received": 0,
            "updates_ignored": 0,
            "updates_applied": 0,
        }

    # -- identity ------------------------------------------------------

    def handles_page(self, hib, local_page: int) -> bool:
        return self.directory.group_at(self.node_id, local_page) is not None

    def _group_for_offset(self, offset: int) -> Optional[PageGroup]:
        page = offset // self.directory.page_bytes
        return self.directory.group_at(self.node_id, page)

    # -- hooks (overridden by protocols) ----------------------------------

    def on_local_store(self, hib, offset: int, value: int):
        """Default: plain local write, no propagation."""
        self.stats["local_stores"] += 1
        group = self._group_for_offset(offset)
        yield from self._apply(hib, group, offset % self.directory.page_bytes,
                               value, origin=self.node_id, kind="local")

    def on_home_write(self, hib, offset: int, value: int, origin: int):
        """Default: nothing to propagate.  (The HIB has already written
        the home copy.)"""
        group = self._record_home(offset, value, origin)
        del group
        return
        yield  # pragma: no cover - makes this a generator

    def on_update(self, hib, packet):
        raise NotImplementedError(
            f"{type(self).__name__} does not expect UPDATE packets"
        )

    def on_ring(self, hib, packet):
        raise NotImplementedError(
            f"{type(self).__name__} does not expect RING_UPDATE packets"
        )

    # -- shared helpers ----------------------------------------------------------

    def _apply(self, hib, group: PageGroup, in_page: int, value: int,
               origin: int, kind: str):
        """Write ``value`` into this node's copy and record it."""
        offset = group.local_offset(self.node_id, in_page)
        yield from hib.backend.write(offset, value)
        self.stats["updates_applied"] += 1
        self._record(group, in_page, value, origin, kind)

    def _record(self, group: PageGroup, in_page: int, value: int,
                origin: int, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.record(
                "apply",
                node=self.node_id,
                key=(group.home, group.gpage, in_page),
                value=value,
                origin=origin,
                kind=kind,
            )

    def _record_home(self, offset: int, value: int, origin: int):
        """Record a direct write applied to a home page (the HIB wrote
        it already); returns the group if the page is shared."""
        group = self._group_for_offset(offset)
        if group is not None and group.home == self.node_id:
            self._record(group, offset % self.directory.page_bytes,
                         value, origin, kind="home")
        return group

    def _update_copy(self, hib, dst: int, group: PageGroup, in_page: int,
                     value: int, origin: int, op_id: Optional[int] = None,
                     meta: Optional[dict] = None):
        self.stats["updates_sent"] += 1
        yield from hib.send(
            PacketKind.UPDATE, dst, address=group.home_offset(in_page),
            value=value, op_id=op_id, origin=origin,
            meta={"home": group.home, "gpage": group.gpage,
                  "in_page": in_page, **(meta or {})},
        )

    @staticmethod
    def _unpack_update(packet):
        """(home, gpage, in_page) from an UPDATE packet."""
        return packet.meta["home"], packet.meta["gpage"], packet.meta["in_page"]
