"""Virtual Shared Memory: the software-DSM baseline.

Single-writer / multiple-reader invalidate protocol (Li–Hudak [19]),
driven entirely by page faults:

- a **read fault** fetches the whole page from its current owner
  (OS trap at both ends, page crosses the network), maps it read-only,
  and joins the copyset;
- a **write fault** additionally invalidates every other copy (one OS
  round trip per holder) and takes ownership with a read-write
  mapping;
- once mapped, accesses are local until the next transition.

This is exactly the §2.1 motivation: "Because of the software
intervention, Virtual Shared Memory has been successfully used for
applications that interact rather infrequently."  The per-transition
costs here are hundreds of microseconds where the Telegraphos fast
path is sub-microsecond.

The manager registers a fault *fixer* with each node's kernel; VSM
messages are charged as OS-level costs rather than routed through the
Telegraphos fabric (the baseline predates the hardware — it would run
over plain Ethernet), with the network share computed from the same
link-bandwidth parameter for a fair comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.hib.backend import copy_page
from repro.machine.mmu import PageTableEntry
from repro.sim import BoundedQueue


class _PageState:
    """Global state of one VSM page."""

    def __init__(self, home: int):
        self.owner = home            # current single writer
        self.copyset: Set[int] = {home}
        self.mode: Dict[int, str] = {home: "rw"}  # node -> "ro"/"rw"


class _NodeView:
    """Per-node bookkeeping: where local copies live, who mapped them."""

    def __init__(self):
        self.local_page: Dict[int, int] = {}     # seg page idx -> backend page
        #: (space, vpage) pairs per segment page index.
        self.mappings: Dict[int, List[tuple]] = {}


class VsmManager:
    """Software DSM over one shared segment."""

    def __init__(self, cluster, segment):
        self.cluster = cluster
        self.segment = segment
        self.pages = [_PageState(segment.home) for _ in range(segment.pages)]
        self.views: Dict[int, _NodeView] = {
            n.node_id: _NodeView() for n in cluster.nodes
        }
        # The home's copies are the segment pages themselves.
        home_view = self.views[segment.home]
        for i in range(segment.pages):
            home_view.local_page[i] = segment.gpage + i
        #: (node, space_id) -> (space, base_vpage) for fault routing.
        self._ranges: List[tuple] = []
        # Per-page metadata locks: concurrent fault handlers for the
        # same page must serialize (a real DSM manager locks its page
        # table entries; without this, two simultaneous write faults
        # can each invalidate the other's *stale* copyset and leave
        # both nodes writable — silent incoherence).
        self._page_locks: List[BoundedQueue] = []
        for i in range(segment.pages):
            lock = BoundedQueue(1, name=f"vsm.lock{i}")
            lock.try_put(object())
            self._page_locks.append(lock)
        for station in cluster.nodes:
            station.os.register_fixer(self._make_fixer(station))
        # Statistics.
        self.read_faults = 0
        self.write_faults = 0
        self.pages_transferred = 0
        self.invalidations = 0

    # -- mapping --------------------------------------------------------

    def map_into(self, proc) -> int:
        """Map the segment into a process.  All pages start unmapped
        (every first touch faults — the VSM way)."""
        station = proc.station
        vpage = station.vm.alloc_vpages(proc.space, self.segment.pages)
        self._ranges.append((proc.station.node_id, proc.space, vpage))
        view = self.views[station.node_id]
        for i in range(self.segment.pages):
            view.mappings.setdefault(i, []).append((proc.space, vpage + i))
            # The home node starts with its own pages mapped RW.
            if station.node_id == self.segment.home:
                self._install(station.node_id, proc.space, vpage + i, i, "rw")
        return vpage * self.cluster.amap.page_bytes

    def _install(self, node: int, space, vpage: int, page_idx: int, mode: str):
        amap = self.cluster.amap
        local = self.views[node].local_page[page_idx]
        space.map_page(
            vpage,
            PageTableEntry(
                amap.mpm(amap.page_base(local)),
                writable=(mode == "rw"),
                shared_id=(self.segment.home, self.segment.gpage + page_idx),
            ),
        )

    # -- fault handling ------------------------------------------------------

    def _make_fixer(self, station):
        def fixer(ctx, fault):
            result = yield from self._fix(station, ctx, fault)
            return result

        return fixer

    def _find_page_idx(self, node: int, space, vaddr: int) -> Optional[int]:
        page_bytes = self.cluster.amap.page_bytes
        vpage = vaddr // page_bytes
        for rnode, rspace, base_vpage in self._ranges:
            if rnode == node and rspace is space:
                idx = vpage - base_vpage
                if 0 <= idx < self.segment.pages:
                    return idx
        return None

    def _fix(self, station, ctx, fault):
        idx = self._find_page_idx(station.node_id, ctx.address_space, fault.vaddr)
        if idx is None:
            return None  # not a VSM page; next fixer
        token = yield self._page_locks[idx].get()
        try:
            # Re-check under the lock: a concurrent handler may have
            # already produced the mapping we need.
            state = self.pages[idx]
            node = station.node_id
            wants_write = fault.access != "read"
            satisfied = node in state.copyset and (
                not wants_write or state.mode.get(node) == "rw"
            )
            if satisfied:
                # Metadata says we already hold the page (a concurrent
                # handler fixed it); just (re)install the mapping.
                self._remap_all(node, idx, state.mode[node])
            elif wants_write:
                yield from self._write_fault(station, idx)
            else:
                yield from self._read_fault(station, idx)
        finally:
            self._page_locks[idx].try_put(token)
        return "retry"

    def _read_fault(self, station, idx: int):
        timing = self.cluster.params.timing
        node = station.node_id
        state = self.pages[idx]
        self.read_faults += 1
        if node not in state.copyset:
            yield from self._fetch_page(station, idx, state.owner)
            state.copyset.add(node)
        state.mode[node] = state.mode.get(node, "ro")
        yield timing.os_trap_ns  # re-map + return to user
        self._remap_all(node, idx, state.mode[node])

    def _write_fault(self, station, idx: int):
        timing = self.cluster.params.timing
        node = station.node_id
        state = self.pages[idx]
        self.write_faults += 1
        if node not in state.copyset:
            yield from self._fetch_page(station, idx, state.owner)
            state.copyset.add(node)
        # Invalidate every other copy: one OS round trip per holder.
        for other in sorted(state.copyset - {node}):
            self.invalidations += 1
            yield 2 * timing.os_trap_ns + timing.os_interrupt_ns
            self._unmap_node(other, idx)
        state.copyset = {node}
        state.owner = node
        state.mode = {node: "rw"}
        yield timing.os_trap_ns
        self._remap_all(node, idx, "rw")

    def _fetch_page(self, station, idx: int, owner: int):
        """Whole-page transfer from the owner, OS-mediated."""
        timing = self.cluster.params.timing
        page_bytes = self.cluster.amap.page_bytes
        self.pages_transferred += 1
        # Request message + owner-side trap/interrupt + page on the wire.
        yield 2 * timing.os_trap_ns
        yield timing.os_interrupt_ns
        yield timing.serialization_ns(page_bytes)
        view = self.views[station.node_id]
        if idx not in view.local_page:
            view.local_page[idx] = station.vm.alloc_backend_pages(1)
        copy_page(self.cluster.node(owner).backend,
                  self.views[owner].local_page[idx], station.backend,
                  view.local_page[idx], page_bytes)

    # -- mapping maintenance ------------------------------------------------------

    def _remap_all(self, node: int, idx: int, mode: str):
        for space, vpage in self.views[node].mappings.get(idx, []):
            self._install(node, space, vpage, idx, mode)

    def _unmap_node(self, node: int, idx: int):
        for space, vpage in self.views[node].mappings.get(idx, []):
            space.unmap_page(vpage)
