"""Where locally homed shared data lives (§2.2.1).

"Shared data that physically reside in the local workstation are
mapped in two different ways in our two prototypes: Telegraphos I uses
memory modules on the HIB [the MPM] ...; Telegraphos II uses a portion
of the workstation's main memory."

The HIB is written against this small backend interface so both
prototypes share one datapath:

- :class:`MpmBackend` (Telegraphos I): a dedicated on-board array —
  no memory-bus contention, but every processor access crosses the
  TurboChannel and pays HIB DRAM latency.
- :class:`DramBackend` (Telegraphos II): a reserved segment of main
  memory — the HIB contends for the memory bus, but the processor
  reads shared data at DRAM speed ("cacheability and faster access to
  shared data, better utilization of main memory").
"""

from __future__ import annotations

from repro.machine.bus import Bus
from repro.machine.memory import WORD_BYTES, WordMemory
from repro.params import TimingParams


def copy_page(src, src_page: int, dst, dst_page: int,
              page_bytes: int) -> None:
    """Copy page ``src_page`` of backend ``src`` into page ``dst_page``
    of backend ``dst``, word by word in address order through the
    zero-time ``peek``/``poke`` accessors: the OS's page copy
    (replication, paging), whose time the caller charges."""
    src_base = src_page * page_bytes
    dst_base = dst_page * page_bytes
    for offset in range(0, page_bytes, WORD_BYTES):
        dst.poke(dst_base + offset, src.peek(src_base + offset))


class MpmBackend:
    """Telegraphos I: the 16 MB MPM on the HIB (Table 1)."""

    def __init__(self, timing: TimingParams, size_bytes: int, node_id: int):
        self.timing = timing
        self.memory = WordMemory(size_bytes, name=f"mpm{node_id}")
        self.size_bytes = size_bytes

    def read(self, offset: int):
        yield self.timing.hib_mem_read_ns
        return self.memory.load_word(offset)

    def write(self, offset: int, value: int):
        yield self.timing.hib_mem_write_ns
        self.memory.store_word(offset, value, mask=False)

    def rmw(self, offset: int, fn):
        """Indivisible read-modify-write: ``fn(old) -> (result, new)``.

        The atomic FSM owns the memory port for the whole cycle, so
        the read and write happen with no interleaving point — this is
        what makes the §2.2.3 atomics atomic against concurrent writes
        arriving from the CPU or the network.
        """
        yield self.timing.hib_mem_read_ns + self.timing.hib_mem_write_ns
        old = self.memory.load_word(offset)
        result, new = fn(old)
        self.memory.store_word(offset, new, mask=False)
        return result, old, new

    # Zero-time accessors for the OS model and checkers (not a
    # hardware path).
    def peek(self, offset: int) -> int:
        return self.memory.load_word(offset)

    def poke(self, offset: int, value: int) -> None:
        self.memory.store_word(offset, value, mask=False)


class DramBackend:
    """Telegraphos II: a segment of main memory, accessed by the HIB
    through the memory bus (DMA)."""

    def __init__(
        self,
        timing: TimingParams,
        dram: WordMemory,
        membus: Bus,
        base_offset: int,
        size_bytes: int,
    ):
        if base_offset % 4 or size_bytes <= 0:
            raise ValueError("bad shared-segment geometry")
        self.timing = timing
        self.dram = dram
        self.membus = membus
        self.base_offset = base_offset
        self.size_bytes = size_bytes

    def _check(self, offset: int) -> int:
        if not 0 <= offset < self.size_bytes:
            raise ValueError(
                f"shared offset 0x{offset:x} outside {self.size_bytes}-byte segment"
            )
        return self.base_offset + offset

    def read(self, offset: int):
        addr = self._check(offset)
        yield from self.membus.transact(self.timing.mem_read_ns)
        return self.dram.load_word(addr)

    def write(self, offset: int, value: int):
        addr = self._check(offset)
        yield from self.membus.transact(self.timing.mem_write_ns)
        self.dram.store_word(addr, value, mask=False)

    def rmw(self, offset: int, fn):
        """Indivisible read-modify-write (a locked bus cycle)."""
        addr = self._check(offset)
        yield from self.membus.transact(
            self.timing.mem_read_ns + self.timing.mem_write_ns
        )
        old = self.dram.load_word(addr)
        result, new = fn(old)
        self.dram.store_word(addr, new, mask=False)
        return result, old, new

    def peek(self, offset: int) -> int:
        return self.dram.load_word(self._check(offset))

    def poke(self, offset: int, value: int) -> None:
        self.dram.store_word(self._check(offset), value, mask=False)
