"""A flat, word-addressed main memory with fixed access latency."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.bitops import WORD_MASK

#: the additional cycles a cache miss pays to reach main memory
MISS_LATENCY = 10


@dataclass
class MainMemory:
    """Sparse word-addressed backing store.

    Addresses are byte addresses that must be 4-aligned; uninitialized
    words read as zero.
    """

    words: dict[int, int] = field(default_factory=dict, init=False)

    def _check(self, address: int) -> None:
        if address % 4 != 0:
            raise ValueError(f"unaligned address {address:#x}")
        if address < 0:
            raise ValueError(f"negative address {address:#x}")

    def read_word(self, address: int) -> int:
        """Read the word at *address* (zero if never written)."""
        self._check(address)
        return self.words.get(address, 0)

    def write_word(self, address: int, value: int) -> None:
        """Write *value* (masked to 32 bits) at *address*."""
        self._check(address)
        self.words[address] = value & WORD_MASK

    def load_image(self, image: dict[int, int]) -> None:
        """Bulk-load an address -> value image (e.g. a workload's data)."""
        for address, value in image.items():
            self.write_word(address, value)

    def snapshot(self) -> dict[int, int]:
        """A copy of all written words."""
        return dict(self.words)
