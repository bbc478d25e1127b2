"""An interleaved (banked) write-back data cache with a fat-tree front end.

Structure per the paper's proposal: stations reach the cache through a
fat-tree whose root bandwidth is ``M(n)``; the cache itself is
word-interleaved across ``banks`` banks, each a direct-mapped write-back
cache, each serving at most one request per cycle.

Timing model per request:

1. The request waits until the fat-tree admits it (root/uplink
   capacities model ``M(n)``).
2. It then queues at its bank; the bank serves one request per cycle.
3. A hit completes after ``hit_latency`` cycles of bank service; a miss
   additionally pays the main memory's ``MISS_LATENCY`` (plus one more
   trip if a dirty victim must be written back).

All state transitions happen in :meth:`InterleavedCache.tick`, which the
processor calls once per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.mainmem import MISS_LATENCY, MainMemory
from repro.network.fattree import FatTree
from repro.util.bitops import WORD_MASK


@dataclass
class MemoryRequest:
    """One outstanding load or store."""

    request_id: int
    address: int
    is_store: bool
    value: int = 0
    #: the requesting station's leaf index in the fat-tree (0 if n/a)
    leaf: int = 0
    #: filled in at completion for loads
    result: int | None = field(default=None, init=False)


@dataclass
class CacheStats:
    """Aggregate statistics, for experiments and tests."""

    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    writebacks: int = field(default=0, init=False)
    bank_conflict_cycles: int = field(default=0, init=False)
    network_denied_cycles: int = field(default=0, init=False)

    def counters(self) -> dict[str, int]:
        """The stats as telemetry counters (``mem.cache.*`` namespace)."""
        return {
            "mem.cache.hits": self.hits,
            "mem.cache.misses": self.misses,
            "mem.cache.writebacks": self.writebacks,
            "mem.cache.bank_conflict_cycles": self.bank_conflict_cycles,
            "mem.cache.network_denied_cycles": self.network_denied_cycles,
        }


@dataclass
class _Line:
    tag: int
    words: list[int]
    dirty: bool = field(default=False, init=False)


@dataclass
class _InFlight:
    request: MemoryRequest
    finish_cycle: int
    is_hit: bool


class InterleavedCache:
    """See module docstring.

    Args:
        banks: number of banks (power of two).
        lines_per_bank: direct-mapped lines in each bank.
        words_per_line: line size in 32-bit words (power of two).
        hit_latency: bank service cycles for a hit.
        fat_tree: optional admission network; ``None`` = unlimited
            bandwidth (useful for unit tests).
    """

    def __init__(
        self,
        banks: int = 4,
        lines_per_bank: int = 64,
        words_per_line: int = 4,
        hit_latency: int = 1,
        fat_tree: FatTree | None = None,
    ):
        if banks < 1 or banks & (banks - 1):
            raise ValueError("banks must be a power of two")
        if words_per_line < 1 or words_per_line & (words_per_line - 1):
            raise ValueError("words_per_line must be a power of two")
        if lines_per_bank < 1:
            raise ValueError("need at least one line per bank")
        if hit_latency < 1:
            raise ValueError("hit latency must be >= 1")
        self.banks = banks
        self.lines_per_bank = lines_per_bank
        self.words_per_line = words_per_line
        self.hit_latency = hit_latency
        self.memory = MainMemory()
        self.fat_tree = fat_tree
        self.stats = CacheStats()

        self._lines: list[dict[int, _Line]] = [dict() for _ in range(banks)]
        self._pending_network: list[MemoryRequest] = []
        self._bank_queues: list[list[MemoryRequest]] = [[] for _ in range(banks)]
        self._bank_busy: list[_InFlight | None] = [None] * banks
        self._cycle = 0
        self._completed: list[MemoryRequest] = []

    # -- address helpers ------------------------------------------------

    def bank_of(self, address: int) -> int:
        """Bank serving *address* (word-interleaved)."""
        return (address // 4) % self.banks

    def _line_index(self, address: int) -> tuple[int, int, int]:
        """(bank, set index, tag) of *address*."""
        word = address // 4
        bank = word % self.banks
        bank_word = word // self.banks
        line = bank_word // self.words_per_line
        return bank, line % self.lines_per_bank, line // self.lines_per_bank

    def _line_base_address(self, bank: int, set_index: int, tag: int) -> int:
        line = tag * self.lines_per_bank + set_index
        first_bank_word = line * self.words_per_line
        return 4 * (first_bank_word * self.banks + bank)

    # -- public API ------------------------------------------------------

    def submit(self, request: MemoryRequest) -> None:
        """Enqueue a request; it completes via :meth:`tick` some cycles later."""
        if request.address % 4 != 0:
            raise ValueError(f"unaligned address {request.address:#x}")
        self._pending_network.append(request)

    def tick(self) -> list[MemoryRequest]:
        """Advance one cycle; returns requests that completed this cycle."""
        self._cycle += 1
        completed: list[MemoryRequest] = []

        # 1. Network admission: oldest-first through the fat-tree.
        if self._pending_network:
            if self.fat_tree is None:
                admitted = list(range(len(self._pending_network)))
                denied: list[int] = []
            else:
                routing = self.fat_tree.admit([r.leaf for r in self._pending_network])
                admitted = list(routing.granted)
                denied = list(routing.denied)
            for index in admitted:
                request = self._pending_network[index]
                self._bank_queues[self.bank_of(request.address)].append(request)
            self.stats.network_denied_cycles += len(denied)
            self._pending_network = [self._pending_network[i] for i in denied]

        # 2. Bank service.  A request's first service tick counts toward
        # its latency, so a hit with hit_latency=1 completes the tick it
        # starts.
        for bank in range(self.banks):
            busy = self._bank_busy[bank]
            if busy is not None:
                if self._cycle >= busy.finish_cycle:
                    self._finish(busy)
                    completed.append(busy.request)
                    self._bank_busy[bank] = None
                else:
                    if self._bank_queues[bank]:
                        self.stats.bank_conflict_cycles += 1
                    continue
            if self._bank_queues[bank] and self._bank_busy[bank] is None:
                request = self._bank_queues[bank].pop(0)
                in_flight = self._start(bank, request)
                if self._cycle >= in_flight.finish_cycle:
                    self._finish(in_flight)
                    completed.append(in_flight.request)
                else:
                    self._bank_busy[bank] = in_flight

        return completed

    @property
    def cycle(self) -> int:
        """Cycles elapsed."""
        return self._cycle

    # -- internals --------------------------------------------------------

    def _start(self, bank: int, request: MemoryRequest) -> _InFlight:
        _, set_index, tag = self._line_index(request.address)
        line = self._lines[bank].get(set_index)
        is_hit = line is not None and line.tag == tag
        latency = self.hit_latency
        if not is_hit:
            latency += MISS_LATENCY
            if line is not None and line.dirty:
                latency += MISS_LATENCY  # write back the victim first
        return _InFlight(
            request=request, finish_cycle=self._cycle + latency - 1, is_hit=is_hit
        )

    def _finish(self, in_flight: _InFlight) -> None:
        request = in_flight.request
        bank, set_index, tag = self._line_index(request.address)
        line = self._lines[bank].get(set_index)

        if in_flight.is_hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            # write back the victim
            if line is not None and line.dirty:
                self.stats.writebacks += 1
                base = self._line_base_address(bank, set_index, line.tag)
                for w, value in enumerate(line.words):
                    self.memory.write_word(base + 4 * w * self.banks, value)
            # fill from memory
            base = self._line_base_address(bank, set_index, tag)
            words = [
                self.memory.read_word(base + 4 * w * self.banks)
                for w in range(self.words_per_line)
            ]
            line = _Line(tag=tag, words=words)
            self._lines[bank][set_index] = line

        word_in_line = (request.address // 4 // self.banks) % self.words_per_line
        if request.is_store:
            line.words[word_in_line] = request.value & WORD_MASK
            line.dirty = True
        else:
            request.result = line.words[word_in_line]

    def flush(self) -> None:
        """Write all dirty lines back to memory (used at end of runs)."""
        for bank in range(self.banks):
            for set_index, line in self._lines[bank].items():
                if line.dirty:
                    base = self._line_base_address(bank, set_index, line.tag)
                    for w, value in enumerate(line.words):
                        self.memory.write_word(base + 4 * w * self.banks, value)
                    line.dirty = False
