"""Unit tests for the processor-facing memory systems."""

import pytest

from repro.memory.interleaved_cache import InterleavedCache
from repro.ultrascalar.memsys import CachedMemory, IdealMemory


class TestIdealMemory:
    def test_load_completes_after_latency(self):
        mem = IdealMemory(load_latency=3)
        mem.load_image({8: 42})
        request = mem.submit_load(8)
        assert mem.tick() == {}          # cycle 1
        assert mem.tick() == {}          # cycle 2
        assert mem.tick() == {request: 42}

    def test_store_completes_and_is_visible(self):
        mem = IdealMemory(load_latency=3)
        request = mem.submit_store(4, 7)
        # the data is architecturally visible immediately
        assert mem.final_state()[4] == 7
        assert mem.tick() == {request: None}

    def test_unit_latency(self):
        mem = IdealMemory()
        request = mem.submit_load(0)
        assert mem.tick() == {request: 0}

    def test_request_ids_unique(self):
        mem = IdealMemory()
        ids = {mem.submit_load(0), mem.submit_store(4, 1), mem.submit_load(8)}
        assert len(ids) == 3

    def test_values_masked(self):
        mem = IdealMemory()
        mem.submit_store(0, (1 << 40) | 5)
        assert mem.final_state()[0] == 5

    def test_unaligned_rejected(self):
        mem = IdealMemory()
        with pytest.raises(ValueError):
            mem.submit_load(2)
        with pytest.raises(ValueError):
            mem.submit_store(3, 1)
        with pytest.raises(ValueError):
            mem.load_image({1: 1})

    def test_final_state(self):
        mem = IdealMemory()
        mem.load_image({0: 1})
        mem.submit_store(4, 2)
        assert mem.final_state() == {0: 1, 4: 2}

    def test_latency_validation(self):
        with pytest.raises(ValueError):
            IdealMemory(load_latency=0)


class TestCachedMemory:
    def make(self):
        cache = InterleavedCache(banks=2, lines_per_bank=4, words_per_line=2)
        return CachedMemory(cache)

    def test_store_then_load(self):
        mem = self.make()
        store = mem.submit_store(8, 99)
        done: dict[int, int | None] = {}
        for _ in range(50):
            done.update(mem.tick())
            if store in done:
                break
        load = mem.submit_load(8)
        for _ in range(50):
            done.update(mem.tick())
            if load in done:
                break
        assert done[load] == 99

    def test_peek_sees_cache_content(self):
        mem = self.make()
        mem.submit_store(8, 5)
        for _ in range(50):
            if mem.tick():
                break
        # the dirty line is not yet in main memory; final_state flushes it
        assert mem.cache.memory.read_word(8) == 0
        assert mem.final_state()[8] == 5

    def test_final_state_flushes(self):
        mem = self.make()
        mem.submit_store(8, 5)
        for _ in range(50):
            if mem.tick():
                break
        assert mem.final_state()[8] == 5

    def test_load_image_reaches_backing_store(self):
        mem = self.make()
        mem.load_image({16: 3})
        load = mem.submit_load(16)
        done: dict[int, int | None] = {}
        for _ in range(50):
            done.update(mem.tick())
            if load in done:
                break
        assert done[load] == 3
