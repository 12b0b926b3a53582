"""Virtual memory: page tables, TLB, protection, faults.

Protection in Telegraphos rests entirely on the MMU (§2.2):
"the operating system *maps* remote pages to the page tables of those
processes that have the right to access the specific remote pages",
and for special-operation launching (§2.2.4) "if the user has no right
to access an address, the TLB will catch it and a page fault will be
generated".

An :class:`AddressSpace` is one process's page table.  Translation is
page-granular: a virtual page maps to a physical page *base* anywhere
in the :class:`~repro.machine.addresses.AddressMap` layout — local
DRAM, the MPM, a remote window, a HIB register page, or a shadow page.
Local shared data is mapped through the MPM region on both
prototypes, so every access to it crosses the TurboChannel to the HIB;
Telegraphos II's shared-memory backend then reaches main memory over
the memory bus.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.machine.addresses import AddressMap


class PageFault(Exception):
    """Raised on translation failure or protection violation.

    The OS model catches these and either services them (VSM fetch,
    replication) or terminates the offending program — mirroring the
    paper's note that an invalid access inside a launch sequence
    generates "a normal page fault" under OSF/1.
    """

    def __init__(self, vaddr: int, access: str, reason: str):
        super().__init__(f"page fault at v=0x{vaddr:x} ({access}): {reason}")
        self.vaddr = vaddr
        self.access = access
        self.reason = reason


@dataclass
class PageTableEntry:
    """One virtual page's mapping."""

    phys_base: int
    readable: bool = True
    writable: bool = True
    cacheable: bool = False
    #: Annotation used by the OS and the coherence layer: global page
    #: identity (home_node, home_page) for shared pages, None for
    #: private memory.
    shared_id: Optional[tuple] = None


class AddressSpace:
    """A process's page table."""

    def __init__(self, amap: AddressMap, name: str = "as"):
        self.amap = amap
        self.name = name
        self._table: Dict[int, PageTableEntry] = {}
        self.version = 0  # bumped on any change; TLBs check it

    def map_page(self, vpage: int, entry: PageTableEntry) -> None:
        self._table[vpage] = entry
        self.version += 1

    def unmap_page(self, vpage: int) -> None:
        self._table.pop(vpage, None)
        self.version += 1

    def entry_for(self, vpage: int) -> Optional[PageTableEntry]:
        return self._table.get(vpage)

    def protect_page(
        self,
        vpage: int,
        readable: Optional[bool] = None,
        writable: Optional[bool] = None,
    ) -> None:
        entry = self._table.get(vpage)
        if entry is None:
            raise KeyError(f"{self.name}: no mapping for vpage {vpage}")
        if readable is not None:
            entry.readable = readable
        if writable is not None:
            entry.writable = writable
        self.version += 1

    def translate(self, vaddr: int, is_write: bool) -> PageTableEntry:
        """Return the PTE covering ``vaddr`` or raise :class:`PageFault`."""
        vpage = self.amap.page_of(vaddr)
        entry = self._table.get(vpage)
        access = "write" if is_write else "read"
        if entry is None:
            raise PageFault(vaddr, access, "not mapped")
        if is_write and not entry.writable:
            raise PageFault(vaddr, access, "write to read-only page")
        if not is_write and not entry.readable:
            raise PageFault(vaddr, access, "read of unreadable page")
        return entry

    def physical(self, vaddr: int, is_write: bool) -> int:
        """Full translation: vaddr → physical address."""
        entry = self.translate(vaddr, is_write)
        return entry.phys_base + self.amap.page_offset(vaddr)

    def mapped_vpages(self):
        return sorted(self._table)


class TLB:
    """A small LRU translation cache.

    Purely a *timing* structure: correctness always re-checks the page
    table via the address-space version stamp, so OS map/unmap/protect
    changes take effect immediately (hardware would shoot down the
    TLB; the version check models that conservatively).
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # vpage -> version
        self.hits = 0
        self.misses = 0

    def access(self, vpage: int, version: int) -> bool:
        """Record an access; True if it would have hit."""
        cached = self._entries.get(vpage)
        if cached == version:
            self._entries.move_to_end(vpage)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[vpage] = version
        self._entries.move_to_end(vpage)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def flush(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MMU:
    """Translation front-end used by the CPU: address space + TLB.

    ``translate`` returns ``(physical_address, pte, tlb_hit)``; the CPU
    charges a page-table-walk penalty on TLB misses.
    """

    def __init__(self, amap: AddressMap, tlb_capacity: int = 32):
        self.amap = amap
        self.tlb = TLB(tlb_capacity)
        self.address_space: Optional[AddressSpace] = None

    def activate(self, address_space: AddressSpace) -> None:
        """Install a process's address space (context switch)."""
        if self.address_space is not address_space:
            self.tlb.flush()
        self.address_space = address_space

    def translate(self, vaddr: int, is_write: bool):
        if self.address_space is None:
            raise RuntimeError("MMU has no active address space")
        entry = self.address_space.translate(vaddr, is_write)
        vpage = self.amap.page_of(vaddr)
        hit = self.tlb.access(vpage, self.address_space.version)
        phys = entry.phys_base + self.amap.page_offset(vaddr)
        return phys, entry, hit
