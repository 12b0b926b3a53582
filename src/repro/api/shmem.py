"""Shared segments and user processes.

A :class:`Segment` is a range of pages in one node's shared memory
(its *home*).  A :class:`Proc` is a user process on some node; it maps
segments into its address space either through the **remote window**
(every access crosses the network — or goes to the local backend when
the process runs on the home node) or as a **replica** (a local copy
registered with the coherence protocol, kept fresh by reflected
writes).

``Proc`` is also the op-builder the paper's programming model implies:
plain ``load``/``store``/``think``/``fence`` return single machine
operations, and the special operations return generator launch
sequences built by the driver (``yield from p.fetch_and_add(...)``).
"""

from __future__ import annotations

from typing import Optional

from repro.hib.backend import copy_page
from repro.machine.ops import Fence, Load, Store, Think

#: How long a program thinks between two polls of a shared word, or
#: two failed attempts at a lock (ns): every spin loop of the
#: synchronization and messaging layers waits this long.
POLL_NS = 2000


class Segment:
    """A shared-memory segment homed at one node."""

    def __init__(self, cluster, name: str, home: int, gpage: int, pages: int):
        self.cluster = cluster
        self.name = name
        self.home = home
        self.gpage = gpage
        self.pages = pages

    @property
    def bytes(self) -> int:
        return self.pages * self.cluster.amap.page_bytes

    @property
    def words(self) -> int:
        return self.bytes // 4

    def peek(self, offset: int) -> int:
        """Zero-time read of the home copy (test/verification path)."""
        base = self.gpage * self.cluster.amap.page_bytes
        return self.cluster.node(self.home).backend.peek(base + offset)

    def poke(self, offset: int, value: int) -> None:
        """Zero-time initialisation of the home copy."""
        base = self.gpage * self.cluster.amap.page_bytes
        self.cluster.node(self.home).backend.poke(base + offset, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Segment {self.name!r} home={self.home} "
            f"gpage={self.gpage} pages={self.pages}>"
        )


class Proc:
    """A user process bound to one node."""

    def __init__(self, cluster, node_id: int, name: str):
        self.cluster = cluster
        self.node_id = node_id
        self.name = name
        station = cluster.node(node_id)
        self.station = station
        self.space = station.vm.create_space(f"{name}@{node_id}")
        self.binding = station.driver.open(self.space, name)
        self._contexts = []

    # -- mapping ----------------------------------------------------------

    def map(self, segment: Segment, mode: str = "remote",
            writable: bool = True) -> int:
        """Map ``segment`` into this process; returns the base vaddr.

        ``mode="remote"``: through the remote window (home accesses are
        local-backend accesses).  ``mode="replica"``: allocate a local
        copy and register it with the coherence protocol.
        """
        vm = self.station.vm
        if mode == "remote":
            if segment.home == self.node_id:
                vaddr = vm.map_local_shared(
                    self.space, segment.gpage, segment.pages,
                    home_id=(segment.home, segment.gpage), writable=writable,
                )
            else:
                vaddr = vm.map_remote_window(
                    self.space, segment.home, segment.gpage, segment.pages,
                    writable=writable,
                )
            self.station.os.note_shared_mapping(
                self.space, vaddr, segment.home, segment.gpage, segment.pages
            )
            return vaddr
        if mode == "replica":
            vaddr = self._map_replica(segment, writable)
            self.station.os.note_shared_mapping(
                self.space, vaddr, segment.home, segment.gpage, segment.pages
            )
            return vaddr
        raise ValueError(f"unknown mapping mode {mode!r}")

    def _map_replica(self, segment: Segment, writable: bool) -> int:
        """Replicate ``segment`` locally and map the copy.

        ``map_local_shared`` maps a *consecutive* run of backend
        pages, so the replica pages must be contiguous.  When no page
        of the segment is resident yet, all of them are allocated in
        one call (which guarantees contiguity); when some pages are
        already replicated (by an earlier mapping or the replication
        policy), the existing placement is reused — and if that
        placement is not contiguous, this raises instead of silently
        mapping the wrong pages.
        """
        directory = self.cluster.directory
        vm = self.station.vm
        page_bytes = self.cluster.amap.page_bytes
        groups = []
        resident: dict = {}
        for i in range(segment.pages):
            gpage = segment.gpage + i
            group = directory.group(segment.home, gpage)
            if group is None:
                group = directory.create_group(segment.home, gpage)
            groups.append(group)
            if group.holds_copy(self.node_id):
                resident[i] = group.placement[self.node_id]

        local_pages: list = []
        if not resident:
            # Fresh replica: one allocation, consecutive by construction.
            first = vm.alloc_backend_pages(segment.pages)
            local_pages = list(range(first, first + segment.pages))
        else:
            for i in range(segment.pages):
                if i in resident:
                    local_pages.append(resident[i])
                else:
                    local_pages.append(vm.alloc_backend_pages(1))
            expected = [local_pages[0] + i for i in range(segment.pages)]
            if local_pages != expected:
                for i, page in enumerate(local_pages):
                    if i not in resident:
                        vm.free_backend_page(page)
                raise RuntimeError(
                    f"replica pages for segment {segment.name!r} on node "
                    f"{self.node_id} are not contiguous "
                    f"(got {local_pages}); the pre-existing replica "
                    "placement cannot back a multi-page mapping"
                )

        home_backend = self.cluster.node(segment.home).backend
        local_backend = self.station.backend
        for i, group in enumerate(groups):
            if i in resident:
                continue
            # Copy current contents (the OS replication step).
            copy_page(home_backend, segment.gpage + i, local_backend,
                      local_pages[i], page_bytes)
            directory.add_replica(group, self.node_id, local_pages[i])
        return vm.map_local_shared(
            self.space, local_pages[0], segment.pages,
            home_id=(segment.home, segment.gpage), writable=writable,
        )

    def map_private(self, pages: int = 1, dram_page: int = 0) -> int:
        return self.station.vm.map_private(self.space, dram_page, pages)

    # -- op builders -------------------------------------------------------------

    def load(self, vaddr: int) -> Load:
        return Load(vaddr)

    def store(self, vaddr: int, value: int) -> Store:
        return Store(vaddr, value)

    def think(self, ns: int) -> Think:
        return Think(ns)

    def fence(self) -> Fence:
        return Fence()

    # Special operations: generators to `yield from`.

    def fetch_and_add(self, vaddr: int, delta: int = 1):
        result = yield from self.station.driver.fetch_and_add(
            self.binding, vaddr, delta
        )
        return result

    def fetch_and_store(self, vaddr: int, value: int):
        result = yield from self.station.driver.fetch_and_store(
            self.binding, vaddr, value
        )
        return result

    def compare_and_swap(self, vaddr: int, expect: int, new: int):
        result = yield from self.station.driver.compare_and_swap(
            self.binding, vaddr, expect, new
        )
        return result

    def remote_copy(self, src_vaddr: int, dst_vaddr: int):
        yield from self.station.driver.remote_copy(
            self.binding, src_vaddr, dst_vaddr
        )

    # -- execution ------------------------------------------------------------------

    def start(self, body_fn, name: Optional[str] = None):
        """Run ``body_fn(self)`` as a program on this node's CPU."""
        ctx = self.station.cpu.start_program(
            body_fn(self), self.space, name or self.name
        )
        self._contexts.append(ctx)
        return ctx
