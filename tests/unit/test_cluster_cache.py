"""Unit tests for the distributed per-cluster cache (Section 7)."""

import pytest

from repro.api import ProcessorConfig, build_processor
from repro.memory.cluster_cache import ClusteredMemory
from repro.workloads import repeated_reduction


def drain(mem, request_id):
    for _ in range(100):
        done = mem.tick()
        if request_id in done:
            return done[request_id]
    raise AssertionError("request never completed")


class TestBasics:
    def test_first_load_misses_second_hits(self):
        mem = ClusteredMemory(cluster_size=4)
        mem.load_image({8: 42})
        assert drain(mem, mem.submit_load(8, leaf=0)) == 42
        assert mem.stats.shared_accesses == 1
        assert drain(mem, mem.submit_load(8, leaf=1)) == 42  # same cluster
        assert mem.stats.local_hits == 1

    def test_different_clusters_miss_separately(self):
        mem = ClusteredMemory(cluster_size=4)
        mem.load_image({8: 42})
        drain(mem, mem.submit_load(8, leaf=0))   # cluster 0
        drain(mem, mem.submit_load(8, leaf=4))   # cluster 1
        assert mem.stats.shared_accesses == 2
        assert mem.stats.local_hits == 0

    def test_local_hits_are_faster(self):
        mem = ClusteredMemory(cluster_size=4)
        mem.load_image({8: 1})
        first = mem.submit_load(8, leaf=0)
        cycles_miss = 0
        while first not in mem.tick():
            cycles_miss += 1
        second = mem.submit_load(8, leaf=0)
        cycles_hit = 0
        while second not in mem.tick():
            cycles_hit += 1
        assert cycles_hit < cycles_miss

    def test_store_invalidates_other_clusters(self):
        mem = ClusteredMemory(cluster_size=4)
        mem.load_image({8: 1})
        drain(mem, mem.submit_load(8, leaf=0))   # cluster 0 caches 1
        drain(mem, mem.submit_load(8, leaf=4))   # cluster 1 caches 1
        drain(mem, mem.submit_store(8, 99, leaf=4))
        assert mem.stats.invalidations == 1
        # cluster 0 must now re-fetch the new value
        assert drain(mem, mem.submit_load(8, leaf=0)) == 99

    def test_store_updates_own_cluster(self):
        mem = ClusteredMemory(cluster_size=4)
        drain(mem, mem.submit_store(8, 7, leaf=0))
        hits_before = mem.stats.local_hits
        assert drain(mem, mem.submit_load(8, leaf=0)) == 7
        assert mem.stats.local_hits == hits_before + 1

    def test_capacity_eviction(self):
        mem = ClusteredMemory(cluster_size=4, words_per_cluster=2)
        mem.load_image({0: 1, 4: 2, 8: 3})
        for address in (0, 4, 8):
            drain(mem, mem.submit_load(address, leaf=0))
        # address 0 was evicted (FIFO); re-reading misses again
        shared_before = mem.stats.shared_accesses
        drain(mem, mem.submit_load(0, leaf=0))
        assert mem.stats.shared_accesses == shared_before + 1

    def test_peek_and_final_state(self):
        mem = ClusteredMemory()
        drain(mem, mem.submit_store(8, 5))
        assert mem.final_state() == {8: 5}

    def test_values_masked(self):
        mem = ClusteredMemory()
        drain(mem, mem.submit_store(0, (1 << 40) | 3))
        assert mem.final_state()[0] == 3

    def test_bandwidth_saved_statistic(self):
        mem = ClusteredMemory(cluster_size=4)
        mem.load_image({8: 1})
        drain(mem, mem.submit_load(8, leaf=0))
        drain(mem, mem.submit_load(8, leaf=0))
        drain(mem, mem.submit_load(8, leaf=0))
        assert mem.stats.bandwidth_saved == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusteredMemory(cluster_size=0)
        with pytest.raises(ValueError):
            ClusteredMemory(words_per_cluster=0)
        mem = ClusteredMemory()
        with pytest.raises(ValueError):
            mem.submit_load(2)


class TestRepeatedReduction:
    def test_reuse_stays_in_the_cluster_caches(self):
        """Section 7: a cache distributed among the clusters slashes the
        shared-memory traffic of a workload that rereads its data."""
        savings = []
        for passes in (1, 2, 4, 8):
            workload = repeated_reduction(8, passes)
            memory = ClusteredMemory(cluster_size=16)
            memory.load_image(workload.memory_image)
            build_processor("us1", ProcessorConfig(window_size=16, fetch_width=8)).run(
                workload.program, memory=memory, initial_registers=workload.registers_for()
            )
            savings.append(memory.stats.bandwidth_saved)
        assert savings == sorted(savings)
        # 8 passes: 63 local hits, 9 shared accesses -- EXPERIMENTS.md's "88%"
        assert (memory.stats.local_hits, memory.stats.shared_accesses) == (63, 9)
        assert f"{savings[-1]:.0%}" == "88%"
