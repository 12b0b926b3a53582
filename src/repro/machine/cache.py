"""A direct-mapped write-through cache for local, non-shared data.

§2.2.1: non-shared data "is routed to the cache (or the main memory)
via the memory bus as usual.  Telegraphos does not interfere with these
accesses at all."  The cache exists so that local computation in the
workloads has realistic cost structure (fast cache hits, slow DRAM
misses) when comparing against remote-access paths.

Shared data is **never** cached in Telegraphos I (it lives in the HIB's
MPM behind the TurboChannel), which is exactly why the paper notes the
Telegraphos II main-memory mapping "results in cacheability and faster
access to shared data".
"""

from __future__ import annotations

from typing import Dict


class DirectMappedCache:
    """Word-granular, direct-mapped, write-through, write-allocate.

    Tracks hit/miss counts; the CPU charges ``cache_hit_ns`` on hits
    and the DRAM path on misses.  The tags are sparse, a dict keyed by
    line index as :class:`~repro.machine.memory.WordMemory` keeps its
    words: a line never filled holds no slot.
    """

    def __init__(self, n_lines: int = 1024, word_bytes: int = 4):
        if n_lines < 1 or n_lines & (n_lines - 1):
            raise ValueError("cache line count must be a positive power of two")
        self.n_lines = n_lines
        self.word_bytes = word_bytes
        self._tags: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def _split(self, addr: int):
        word = addr // self.word_bytes
        return word % self.n_lines, word // self.n_lines

    def lookup(self, addr: int) -> bool:
        """True on hit.  On miss the line is allocated (the caller is
        assumed to fetch from DRAM)."""
        index, tag = self._split(addr)
        if self._tags.get(index) == tag:
            self.hits += 1
            return True
        self.misses += 1
        self._tags[index] = tag
        return False

    def touch_write(self, addr: int) -> bool:
        """Write-through with allocate: the line becomes present; DRAM
        is updated by the caller either way.  Returns prior hit."""
        index, tag = self._split(addr)
        hit = self._tags.get(index) == tag
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        self._tags[index] = tag
        return hit

    def invalidate_all(self) -> None:
        self._tags.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
