"""Word-addressed memory arrays.

Used for both a node's main DRAM and the HIB's on-board MPM.  Storage
is sparse (a dict keyed by word index) because simulated footprints are
tiny compared to the modelled 16–64 MB arrays.  Values are arbitrary
Python ints — the model is behavioural, not bit-accurate, though
:meth:`WordMemory.store_word` masks to the 32-bit datapath by default
so overflow behaviour matches the hardware.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

#: Bytes per word: the HIB datapath is 32-bit (Table 1), and every
#: memory, cache line and address map in the model is word-addressed.
WORD_BYTES = 4


class WordMemory:
    """A sparse array of 32-bit words with bounds checking.

    ``size_bytes`` bounds the address range; accesses must be
    word-aligned (the HIB datapath is 32-bit, §Table 1).
    """

    WORD_MASK = 0xFFFFFFFF

    def __init__(self, size_bytes: int, name: str = "mem"):
        if size_bytes <= 0 or size_bytes % WORD_BYTES:
            raise ValueError("memory size must be a positive multiple of word size")
        self.size_bytes = size_bytes
        self.name = name
        self._words: Dict[int, int] = {}

    def _index(self, addr: int) -> int:
        if addr % WORD_BYTES:
            raise ValueError(
                f"{self.name}: unaligned word access at 0x{addr:x}"
            )
        if not 0 <= addr < self.size_bytes:
            raise ValueError(
                f"{self.name}: address 0x{addr:x} outside {self.size_bytes} bytes"
            )
        return addr // WORD_BYTES

    def load_word(self, addr: int) -> int:
        """Read the word at byte address ``addr`` (0 if never written)."""
        return self._words.get(self._index(addr), 0)

    def store_word(self, addr: int, value: int, mask: bool = True) -> None:
        """Write the word at byte address ``addr``."""
        self._words[self._index(addr)] = value & self.WORD_MASK if mask else value

    def written_words(self) -> Iterator[Tuple[int, int]]:
        """(byte_address, value) for every word ever written."""
        for index in sorted(self._words):
            yield index * WORD_BYTES, self._words[index]
