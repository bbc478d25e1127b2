"""Unit tests for the memory subsystem (main memory, caches)."""

import pytest

from repro.memory.interleaved_cache import InterleavedCache, MemoryRequest
from repro.memory.mainmem import MISS_LATENCY, MainMemory
from repro.memory.trace_cache import TraceCache
from repro.network.fattree import FatTree, bandwidth_constant
from tests.oracles import drain


class TestMainMemory:
    def test_uninitialized_reads_zero(self):
        assert MainMemory().read_word(100) == 0

    def test_write_read_roundtrip(self):
        mem = MainMemory()
        mem.write_word(8, 1234)
        assert mem.read_word(8) == 1234

    def test_values_masked_to_32_bits(self):
        mem = MainMemory()
        mem.write_word(0, 1 << 35 | 7)
        assert mem.read_word(0) == 7

    def test_unaligned_rejected(self):
        mem = MainMemory()
        with pytest.raises(ValueError):
            mem.read_word(2)
        with pytest.raises(ValueError):
            mem.write_word(5, 0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MainMemory().read_word(-4)

    def test_load_image_and_snapshot(self):
        mem = MainMemory()
        mem.load_image({0: 1, 4: 2})
        assert mem.snapshot() == {0: 1, 4: 2}


def make_cache(**kwargs):
    defaults = dict(banks=4, lines_per_bank=8, words_per_line=2, hit_latency=1)
    defaults.update(kwargs)
    return InterleavedCache(**defaults)


class TestInterleavedCacheBasics:
    def test_store_then_load_roundtrip(self):
        cache = make_cache()
        cache.submit(MemoryRequest(0, address=8, is_store=True, value=77))
        drain(cache)
        load = MemoryRequest(1, address=8, is_store=False)
        cache.submit(load)
        drain(cache)
        assert load.result == 77

    def test_load_from_backing_memory(self):
        cache = make_cache()
        cache.memory.write_word(100, 42)
        load = MemoryRequest(0, address=100, is_store=False)
        cache.submit(load)
        drain(cache)
        assert load.result == 42
        assert cache.stats.misses == 1

    def test_second_access_hits(self):
        cache = make_cache()
        for rid in range(2):
            req = MemoryRequest(rid, address=16, is_store=False)
            cache.submit(req)
            drain(cache)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_line_fill_brings_neighbours(self):
        cache = make_cache(banks=1, words_per_line=4)
        cache.memory.load_image({0: 1, 4: 2, 8: 3, 12: 4})
        first = MemoryRequest(0, address=0, is_store=False)
        cache.submit(first)
        drain(cache)
        second = MemoryRequest(1, address=8, is_store=False)
        cache.submit(second)
        drain(cache)
        assert second.result == 3
        assert cache.stats.hits == 1  # same line

    def test_bank_interleaving(self):
        cache = make_cache(banks=4)
        assert cache.bank_of(0) == 0
        assert cache.bank_of(4) == 1
        assert cache.bank_of(8) == 2
        assert cache.bank_of(16) == 0

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            make_cache().submit(MemoryRequest(0, address=3, is_store=False))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_cache(banks=3)
        with pytest.raises(ValueError):
            make_cache(words_per_line=3)
        with pytest.raises(ValueError):
            make_cache(lines_per_bank=0)
        with pytest.raises(ValueError):
            make_cache(hit_latency=0)


class TestInterleavedCacheTiming:
    def test_hit_latency(self):
        cache = make_cache(hit_latency=2)
        warm = MemoryRequest(0, address=0, is_store=True, value=5)
        cache.submit(warm)
        drain(cache)
        start = cache.cycle
        load = MemoryRequest(1, address=0, is_store=False)
        cache.submit(load)
        done = drain(cache)
        assert done and done[0].request_id == 1
        assert cache.cycle - start == 2

    def test_miss_pays_memory_latency(self):
        cache = make_cache(hit_latency=1)
        start = cache.cycle
        load = MemoryRequest(0, address=0, is_store=False)
        cache.submit(load)
        drain(cache)
        assert cache.cycle - start == 1 + MISS_LATENCY

    def test_bank_conflicts_serialize(self):
        # two hits to the same bank take longer than hits to two banks
        def hit_cycles(addresses):
            cache = make_cache(hit_latency=1)
            for rid, addr in enumerate(addresses):  # fill the lines first
                cache.submit(MemoryRequest(rid, address=addr, is_store=True, value=1))
                drain(cache)
            start, misses = cache.cycle, cache.stats.misses
            for rid, addr in enumerate(addresses, len(addresses)):
                cache.submit(MemoryRequest(rid, address=addr, is_store=True, value=2))
            drain(cache)
            assert cache.stats.misses == misses
            return cache.cycle - start

        assert hit_cycles([0, 16]) > hit_cycles([0, 4])  # bank 0 twice; banks 0 and 1

    def test_fat_tree_throttles_admission(self):
        tree = FatTree(4, bandwidth_constant(1.0))
        cache = make_cache(fat_tree=tree)
        for rid in range(4):
            cache.submit(MemoryRequest(rid, address=4 * rid, is_store=True, value=rid, leaf=rid))
        drain(cache)
        assert cache.stats.network_denied_cycles > 0


class TestWriteback:
    def test_dirty_eviction_reaches_memory(self):
        cache = make_cache(banks=1, lines_per_bank=1, words_per_line=1)
        cache.submit(MemoryRequest(0, address=0, is_store=True, value=11))
        drain(cache)
        # address 4 maps to the same (only) line in bank 0 -> evicts
        cache.submit(MemoryRequest(1, address=4, is_store=True, value=22))
        drain(cache)
        assert cache.memory.read_word(0) == 11
        assert cache.stats.writebacks == 1

    def test_flush_writes_all_dirty_lines(self):
        cache = make_cache()
        cache.submit(MemoryRequest(0, address=8, is_store=True, value=3))
        drain(cache)
        assert cache.memory.read_word(8) == 0
        cache.flush()
        assert cache.memory.read_word(8) == 3


class TestTraceCache:
    def test_miss_then_hit(self):
        tc = TraceCache(num_sets=16)
        assert tc.lookup(0, (True,)) is None
        tc.fill(0, (True,), (0, 1, 2, 7))
        assert tc.lookup(0, (True,)) == (0, 1, 2, 7)
        assert tc.stats.hits == 1 and tc.stats.misses == 1

    def test_outcome_mismatch_misses(self):
        tc = TraceCache()
        tc.fill(0, (True, False), (0, 1, 5))
        assert tc.lookup(0, (True, True)) is None

    def test_prefix_match_hits(self):
        tc = TraceCache()
        tc.fill(0, (True,), (0, 5))
        assert tc.lookup(0, (True, False)) == (0, 5)

    def test_set_conflict_evicts(self):
        tc = TraceCache(num_sets=1)
        tc.fill(0, (), (0,))
        tc.fill(7, (), (7,))
        assert tc.lookup(0, ()) is None
        assert tc.lookup(7, ()) == (7,)

    def test_fill_limits_enforced(self):
        tc = TraceCache(trace_length=2, max_branches=1)
        with pytest.raises(ValueError):
            tc.fill(0, (), (0, 1, 2))
        with pytest.raises(ValueError):
            tc.fill(0, (True, True), (0, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceCache(num_sets=0)
        with pytest.raises(ValueError):
            TraceCache(trace_length=0)
        with pytest.raises(ValueError):
            TraceCache(max_branches=-1)
