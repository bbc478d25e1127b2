"""A data cache distributed among the clusters (Section 7).

"One way to reduce the bandwidth requirements may be to use a cache
distributed among the clusters ... With the right caching and renaming
protocols, it is conceivable that a processor could require
substantially reduced memory bandwidth, resulting in dramatically
reduced chip complexity."

Model: each cluster of stations owns a small private direct-mapped
cache.  Loads that hit locally never enter the fat-tree; misses pay the
shared-memory latency and fill the local cache.  Stores write through
to the shared memory and invalidate every other cluster's copy (the
simplest correct protocol — the Ultrascalar's global load/store
ordering already serializes conflicting accesses, so write-through +
broadcast-invalidate preserves the golden semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.bitops import WORD_MASK

#: cycles for a load that hits its cluster's cache
LOCAL_LATENCY = 1
#: cycles for any access that reaches shared memory
SHARED_LATENCY = 6


@dataclass
class ClusterCacheStats:
    """Traffic accounting for the bandwidth-reduction experiment."""

    local_hits: int = field(default=0, init=False)
    shared_accesses: int = field(default=0, init=False)
    invalidations: int = field(default=0, init=False)

    @property
    def total(self) -> int:
        """All memory operations observed."""
        return self.local_hits + self.shared_accesses

    @property
    def bandwidth_saved(self) -> float:
        """Fraction of operations that never reached the shared memory."""
        return self.local_hits / self.total if self.total else 0.0

    def counters(self) -> dict[str, int]:
        """The stats as telemetry counters (``mem.cluster.*`` namespace)."""
        return {
            "mem.cluster.local_hits": self.local_hits,
            "mem.cluster.shared_accesses": self.shared_accesses,
            "mem.cluster.invalidations": self.invalidations,
        }


@dataclass
class ClusteredMemory:
    """Per-cluster caches in front of a flat shared memory.

    Implements the :class:`repro.ultrascalar.memsys.MemorySystem`
    protocol.  ``leaf // cluster_size`` selects the requester's cluster.

    Args:
        cluster_size: stations per cluster (the hybrid's C).
        words_per_cluster: capacity of each private cache, in words.
    """

    cluster_size: int = 8
    words_per_cluster: int = 64
    words: dict[int, int] = field(default_factory=dict, init=False)
    stats: ClusterCacheStats = field(default_factory=ClusterCacheStats, init=False)
    _caches: dict[int, dict[int, int]] = field(default_factory=dict, init=False)
    _next_id: int = field(default=0, init=False)
    _in_flight: list[tuple[int, int, bool, int]] = field(default_factory=list, init=False)
    # (request_id, remaining cycles, is_store, value)

    def __post_init__(self) -> None:
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be positive")
        if self.words_per_cluster < 1:
            raise ValueError("words_per_cluster must be positive")

    def _check(self, address: int) -> None:
        if address % 4 != 0:
            raise ValueError(f"unaligned address {address:#x}")

    def _cluster_of(self, leaf: int) -> int:
        return max(0, leaf) // self.cluster_size

    def _cache(self, cluster: int) -> dict[int, int]:
        return self._caches.setdefault(cluster, {})

    def _fill(self, cluster: int, address: int, value: int) -> None:
        cache = self._cache(cluster)
        if address not in cache and len(cache) >= self.words_per_cluster:
            cache.pop(next(iter(cache)))  # FIFO eviction
        cache[address] = value

    def submit_load(self, address: int, leaf: int = 0) -> int:
        self._check(address)
        request_id = self._next_id
        self._next_id += 1
        cluster = self._cluster_of(leaf)
        cache = self._cache(cluster)
        if address in cache:
            self.stats.local_hits += 1
            self._in_flight.append((request_id, LOCAL_LATENCY, False, cache[address]))
        else:
            self.stats.shared_accesses += 1
            value = self.words.get(address, 0)
            self._fill(cluster, address, value)
            self._in_flight.append((request_id, SHARED_LATENCY, False, value))
        return request_id

    def submit_store(self, address: int, value: int, leaf: int = 0) -> int:
        self._check(address)
        request_id = self._next_id
        self._next_id += 1
        value &= WORD_MASK
        self.words[address] = value  # write-through
        self.stats.shared_accesses += 1
        owner = self._cluster_of(leaf)
        for cluster, cache in self._caches.items():
            if cluster != owner and address in cache:
                del cache[address]  # broadcast invalidate
                self.stats.invalidations += 1
        self._fill(owner, address, value)
        self._in_flight.append((request_id, SHARED_LATENCY, True, value))
        return request_id

    def tick(self) -> dict[int, int | None]:
        completed: dict[int, int | None] = {}
        remaining = []
        for request_id, cycles, is_store, value in self._in_flight:
            if cycles <= 1:
                completed[request_id] = None if is_store else value
            else:
                remaining.append((request_id, cycles - 1, is_store, value))
        self._in_flight = remaining
        return completed

    def load_image(self, image: dict[int, int]) -> None:
        for address, value in image.items():
            self._check(address)
            self.words[address] = value & WORD_MASK

    def final_state(self) -> dict[int, int]:
        return dict(self.words)

    def counters(self) -> dict[str, int]:
        counters = {"mem.requests": self._next_id}
        counters.update(self.stats.counters())
        return counters
