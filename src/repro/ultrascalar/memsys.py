"""Memory systems the processor models plug into.

Two implementations of one small protocol:

* :class:`IdealMemory` — a flat store with a fixed load latency: loads
  complete ``load_latency`` cycles after issue, stores are visible
  immediately at execution and complete one cycle later.  Used for
  scheduling-equivalence experiments where memory contention must not
  add noise.
* :class:`CachedMemory` — the paper's proposal: an interleaved banked
  cache reached through a fat-tree of bandwidth ``M(n)``.  Load/store
  completion times become dynamic (bank conflicts, misses, network
  admission), exercising the paper's memory-bandwidth discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.memory.interleaved_cache import InterleavedCache, MemoryRequest
from repro.util.bitops import WORD_MASK


class MemorySystem(Protocol):
    """What a processor model needs from memory."""

    def submit_load(self, address: int, leaf: int = 0) -> int:
        """Begin a load; returns a request id."""
        ...

    def submit_store(self, address: int, value: int, leaf: int = 0) -> int:
        """Begin a store; returns a request id."""
        ...

    def tick(self) -> dict[int, int | None]:
        """Advance a cycle; maps completed request ids to load values."""
        ...

    def load_image(self, image: dict[int, int]) -> None:
        """Preload memory contents."""
        ...

    def final_state(self) -> dict[int, int]:
        """All written words, flushed (for golden-model comparison)."""
        ...

    def counters(self) -> dict[str, int]:
        """Telemetry counters (``mem.*`` namespace) for run statistics."""
        ...


@dataclass
class IdealMemory:
    """Fixed-latency magic memory (see module docstring)."""

    load_latency: int = 1
    words: dict[int, int] = field(default_factory=dict, init=False)
    _next_id: int = field(default=0, init=False)
    _in_flight: list[tuple[int, int, bool, int, int]] = field(default_factory=list, init=False)
    # each entry: (request_id, finish_in, is_store, address, value)

    def __post_init__(self) -> None:
        if self.load_latency < 1:
            raise ValueError("load_latency must be >= 1")

    def _check(self, address: int) -> None:
        if address % 4 != 0:
            raise ValueError(f"unaligned address {address:#x}")

    def submit_load(self, address: int, leaf: int = 0) -> int:
        self._check(address)
        request_id = self._next_id
        self._next_id += 1
        self._in_flight.append((request_id, self.load_latency, False, address, 0))
        return request_id

    def submit_store(self, address: int, value: int, leaf: int = 0) -> int:
        self._check(address)
        request_id = self._next_id
        self._next_id += 1
        # Stores take effect immediately (the ring's ordering conditions
        # already guarantee no earlier load can still need the old value),
        # and complete at the next tick.
        self.words[address] = value & WORD_MASK
        self._in_flight.append((request_id, 1, True, address, value))
        return request_id

    def tick(self) -> dict[int, int | None]:
        completed: dict[int, int | None] = {}
        remaining = []
        for request_id, cycles, is_store, address, value in self._in_flight:
            if cycles <= 1:
                completed[request_id] = None if is_store else self.words.get(address, 0)
            else:
                remaining.append((request_id, cycles - 1, is_store, address, value))
        self._in_flight = remaining
        return completed

    def load_image(self, image: dict[int, int]) -> None:
        for address, value in image.items():
            self._check(address)
            self.words[address] = value & WORD_MASK

    def final_state(self) -> dict[int, int]:
        return dict(self.words)

    def counters(self) -> dict[str, int]:
        return {"mem.requests": self._next_id}


class CachedMemory:
    """Interleaved cache + fat-tree admission behind the protocol."""

    def __init__(self, cache: InterleavedCache):
        self.cache = cache
        self._next_id = 0

    def submit_load(self, address: int, leaf: int = 0) -> int:
        request_id = self._next_id
        self._next_id += 1
        self.cache.submit(
            MemoryRequest(request_id=request_id, address=address, is_store=False, leaf=leaf)
        )
        return request_id

    def submit_store(self, address: int, value: int, leaf: int = 0) -> int:
        request_id = self._next_id
        self._next_id += 1
        self.cache.submit(
            MemoryRequest(
                request_id=request_id, address=address, is_store=True, value=value, leaf=leaf
            )
        )
        return request_id

    def tick(self) -> dict[int, int | None]:
        return {
            req.request_id: (None if req.is_store else req.result)
            for req in self.cache.tick()
        }

    def load_image(self, image: dict[int, int]) -> None:
        self.cache.memory.load_image(image)

    def final_state(self) -> dict[int, int]:
        self.cache.flush()
        return {a: v for a, v in self.cache.memory.snapshot().items()}

    def counters(self) -> dict[str, int]:
        counters = {"mem.requests": self._next_id}
        counters.update(self.cache.stats.counters())
        return counters
