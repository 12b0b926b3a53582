"""The Telegraphos physical address map.

§2.2.1: "remote addresses are mapped into physical addresses that
correspond to the TurboChannel address space.  The highest order bits
of each physical address denote the node identification on which the
physical memory location resides."

§2.2.4 (Telegraphos II): "For each virtual address that maps into a
physical address, we introduce a shadow virtual address that maps into
a shadow physical address.  An address differs from its shadow only in
the highest bit."

The layout (40-bit physical addresses):

====  ==========================  =========================================
bits  field                        meaning
====  ==========================  =========================================
39    SHADOW                       Telegraphos II shadow flag
38-36 REGION                       which physical resource
35-24 NODE                         home node id (REMOTE region only)
23-0  OFFSET                       byte offset within the region
====  ==========================  =========================================

Regions:

- ``DRAM``   — local main memory (non-shared data; cacheable).
- ``REMOTE`` — window onto another node's shared memory; a load/store
  here is latched by the HIB and becomes a network request.
- ``HIB``    — HIB control registers (special-mode toggle, contexts,
  counters, fence, ...).
- ``MPM``    — the HIB's on-board multiprocessor memory where locally
  homed shared data lives in Telegraphos I (16 MB, Table 1).

All addresses are byte addresses; the datapath is 32-bit, so the
word-aligned address of a word is ``addr & ~3``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.machine.memory import WORD_BYTES


class Region(enum.Enum):
    DRAM = 0
    REMOTE = 1
    HIB = 2
    MPM = 3


@dataclass(frozen=True)
class DecodedAddress:
    """A physical address split into its fields."""

    region: Region
    offset: int
    node: Optional[int] = None
    shadow: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shadow = " shadow" if self.shadow else ""
        node = f" node={self.node}" if self.node is not None else ""
        return f"<{self.region.name}{node} +0x{self.offset:x}{shadow}>"


class AddressMap:
    """Encode/decode physical addresses for the fixed layout above."""

    PHYS_BITS = 40
    SHADOW_SHIFT = 39
    SHADOW_BIT = 1 << SHADOW_SHIFT
    REGION_SHIFT = 36
    REGION_MASK = 0x7
    NODE_SHIFT = 24
    NODE_MASK = 0xFFF
    OFFSET_MASK = (1 << NODE_SHIFT) - 1  # 16 MB windows

    #: Size of each node's shared-memory window (== MPM size, Table 1).
    WINDOW_BYTES = 1 << NODE_SHIFT

    #: Decoded-address cache bound; cleared wholesale when exceeded.
    _DECODE_CACHE_MAX = 65536

    def __init__(self, page_bytes: int = 8192):
        self.page_bytes = page_bytes
        # phys -> DecodedAddress.  Decoding is pure and DecodedAddress
        # frozen, so memoization is safe; workloads touch a small set
        # of addresses over and over.
        self._decode_cache: dict = {}

    # -- encoding -----------------------------------------------------

    def _encode(self, region: Region, offset: int, node: int = 0) -> int:
        if not 0 <= offset <= self.OFFSET_MASK:
            raise ValueError(f"offset 0x{offset:x} outside 16 MB window")
        if not 0 <= node <= self.NODE_MASK:
            raise ValueError(f"node id {node} out of range")
        return (
            (region.value << self.REGION_SHIFT)
            | (node << self.NODE_SHIFT)
            | offset
        )

    def dram(self, offset: int) -> int:
        """Local main memory."""
        return self._encode(Region.DRAM, offset)

    def remote(self, node: int, offset: int) -> int:
        """Another node's shared window (the HIB turns accesses into
        network packets)."""
        return self._encode(Region.REMOTE, offset, node)

    def hib_register(self, offset: int) -> int:
        """A HIB control register."""
        return self._encode(Region.HIB, offset)

    def mpm(self, offset: int) -> int:
        """The local HIB's on-board shared memory (Telegraphos I)."""
        return self._encode(Region.MPM, offset)

    def shadow(self, phys: int) -> int:
        """The Telegraphos II shadow of a physical address: differs
        only in the highest bit (§2.2.4)."""
        return phys | self.SHADOW_BIT

    def unshadow(self, phys: int) -> int:
        return phys & ~self.SHADOW_BIT

    # -- decoding -----------------------------------------------------------

    def decode(self, phys: int) -> DecodedAddress:
        cached = self._decode_cache.get(phys)
        if cached is not None:
            return cached
        if phys < 0 or phys >> self.PHYS_BITS:
            raise ValueError(f"physical address 0x{phys:x} out of range")
        shadow = bool(phys & self.SHADOW_BIT)
        base = phys & ~self.SHADOW_BIT
        region = Region((base >> self.REGION_SHIFT) & self.REGION_MASK)
        offset = base & self.OFFSET_MASK
        node: Optional[int] = None
        if region is Region.REMOTE:
            node = (base >> self.NODE_SHIFT) & self.NODE_MASK
        decoded = DecodedAddress(
            region=region, offset=offset, node=node, shadow=shadow)
        cache = self._decode_cache
        if len(cache) >= self._DECODE_CACHE_MAX:
            cache.clear()
        cache[phys] = decoded
        return decoded

    # -- geometry helpers --------------------------------------------------------

    def word_aligned(self, addr: int) -> int:
        return addr & ~(WORD_BYTES - 1)

    def is_word_aligned(self, addr: int) -> bool:
        return addr % WORD_BYTES == 0

    def page_of(self, addr: int) -> int:
        """Page number of a byte offset (region-local)."""
        return addr // self.page_bytes

    def page_base(self, page: int) -> int:
        return page * self.page_bytes

    def page_offset(self, addr: int) -> int:
        return addr % self.page_bytes

    def same_page(self, a: int, b: int) -> bool:
        return self.page_of(a) == self.page_of(b)
