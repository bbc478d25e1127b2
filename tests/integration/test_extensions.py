"""Integration tests for the paper's extension features:

* shared-ALU scheduling (window size decoupled from issue width),
* memory renaming / store-forwarding,
* self-timed distance-dependent forwarding.

Each must preserve architectural correctness (golden equivalence) while
changing timing in the direction the paper predicts.
"""

import pytest

from repro.isa import assemble
from repro.isa.interpreter import MachineState, run_program
from repro.telemetry import CountingTracer
from repro.ultrascalar import (
    IdealMemory,
    ProcessorConfig,
    make_ultrascalar1,
    make_ultrascalar2,
)
from repro.workloads import (
    daxpy_loop,
    dependency_chain,
    independent_ops,
    random_ilp,
    spaced_chain,
    store_load_pairs,
)


def run_config(workload, load_latency=1, **config_kwargs):
    config = ProcessorConfig(window_size=16, fetch_width=8, **config_kwargs)
    memory = IdealMemory(load_latency=load_latency)
    memory.load_image(workload.memory_image)
    processor = make_ultrascalar1(
        workload.program, config, memory=memory,
        initial_registers=workload.registers_for(),
    )
    return processor.run()


def assert_golden(workload, result):
    golden = run_program(
        workload.program,
        state=MachineState(workload.registers_for(), dict(workload.memory_image)),
    )
    assert result.registers == golden.state.registers
    expected = dict(workload.memory_image)
    expected.update(golden.state.memory)
    for address, value in expected.items():
        assert result.memory.get(address, 0) == value


class TestSharedAlus:
    @pytest.mark.parametrize("num_alus", [1, 2, 4, 8])
    def test_correct_at_any_pool_size(self, num_alus):
        workload = random_ilp(40, 0.3, seed=201)
        result = run_config(workload, num_alus=num_alus)
        assert_golden(workload, result)

    def test_ipc_capped_by_pool(self):
        workload = independent_ops(40)
        for num_alus in (1, 2, 4):
            result = run_config(workload, num_alus=num_alus)
            assert result.ipc <= num_alus + 0.1

    def test_ipc_grows_with_pool(self):
        workload = independent_ops(40)
        ipcs = [run_config(workload, num_alus=k).ipc for k in (1, 2, 4, 8)]
        assert ipcs == sorted(ipcs)
        assert ipcs[-1] > 2 * ipcs[0]

    def test_big_pool_equals_unlimited(self):
        workload = random_ilp(40, 0.4, seed=202)
        pooled = run_config(workload, num_alus=16)  # = window size
        unlimited = run_config(workload)
        assert pooled.cycles == unlimited.cycles

    def test_serial_chain_insensitive_to_pool(self):
        # ILP = 1: one ALU is as good as sixteen
        workload = dependency_chain(25)
        assert run_config(workload, num_alus=1).cycles == run_config(workload).cycles

    def test_memory_ops_bypass_the_pool(self):
        workload = daxpy_loop(5)
        result = run_config(workload, num_alus=1)
        assert_golden(workload, result)


class TestStoreForwarding:
    def test_correctness_preserved(self):
        workload = store_load_pairs(6)
        result = run_config(workload, store_forwarding=True)
        assert_golden(workload, result)

    def test_loads_are_forwarded(self):
        workload = store_load_pairs(6)
        result = run_config(workload, store_forwarding=True)
        assert result.forwarded_loads >= 4

    def test_no_forwarding_without_flag(self):
        workload = store_load_pairs(6)
        result = run_config(workload)
        assert result.forwarded_loads == 0

    def test_forwarding_reduces_memory_latency_cost(self):
        workload = store_load_pairs(6)
        slow_plain = run_config(workload, load_latency=8)
        slow_forwarded = run_config(workload, load_latency=8, store_forwarding=True)
        assert slow_forwarded.cycles < slow_plain.cycles

    def test_forwards_nearest_store_not_an_older_one(self):
        source = """
            li r1, 100
            li r2, 1
            li r3, 2
            li r7, 9
            li r8, 3
            div r9, r7, r8      # slow op keeps the window open
            sw r2, 0(r1)
            sw r3, 0(r1)        # nearer store, same address
            lw r4, 0(r1)
            halt
        """
        program = assemble(source)
        golden = run_program(program)
        config = ProcessorConfig(window_size=16, fetch_width=16, store_forwarding=True)
        result = make_ultrascalar1(program, config, memory=IdealMemory()).run()
        assert result.registers == golden.state.registers
        assert result.registers[4] == 2
        assert result.forwarded_loads == 1

    def test_daxpy_still_correct_with_forwarding(self):
        workload = daxpy_loop(6)
        result = run_config(workload, store_forwarding=True)
        assert_golden(workload, result)


class TestSelfTimed:
    def test_correctness_preserved(self):
        workload = random_ilp(40, 0.5, seed=203)
        result = run_config(workload, self_timed=True)
        assert_golden(workload, result)

    def test_neighbour_chains_beat_far_chains(self):
        """The paper's claim: programs depending on immediate
        predecessors run faster self-timed than far-dependent ones."""
        near = spaced_chain(48, 1)
        far = spaced_chain(48, 8)
        near_cycles = run_config(near, self_timed=True).cycles
        far_cycles = run_config(far, self_timed=True).cycles
        # same chain length (48 links at distance 1 vs 6 links + filler);
        # compare per-link cost instead: time per dependent hop
        near_per_hop = near_cycles / 48
        far_per_hop = far_cycles / 6
        assert near_per_hop < far_per_hop

    def test_global_clock_is_distance_blind(self):
        near = spaced_chain(32, 1)
        result_near = run_config(near)
        result_near_st = run_config(near, self_timed=True)
        # self-timed can only slow things down in cycle counts (its win
        # is that a "cycle" is a local hop, not the full-chip wire)
        assert result_near_st.cycles >= result_near.cycles

    def test_adjacent_dependences_mostly_single_cycle(self):
        near = spaced_chain(48, 1)
        global_clock = run_config(near).cycles
        self_timed = run_config(near, self_timed=True).cycles
        # 3/4 of successor hops are intra-quadrant: the slowdown is mild
        assert self_timed <= global_clock * 1.6


class TestConfigValidation:
    def test_num_alus_positive(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_alus=0)


class TestUltrascalar2HonoursKnobs:
    """The Ultrascalar II is the ring with one cluster of n stations, so
    the shared-ALU, store-forwarding and self-timed knobs change its
    timing just as they change the Ultrascalar I's."""

    @staticmethod
    def run_us2(workload, load_latency=1, tracer=None, **config_kwargs):
        config = ProcessorConfig(window_size=16, fetch_width=8, **config_kwargs)
        memory = IdealMemory(load_latency=load_latency)
        memory.load_image(workload.memory_image)
        processor = make_ultrascalar2(
            workload.program, config, memory=memory,
            initial_registers=workload.registers_for(), tracer=tracer,
        )
        return processor.run()

    def test_shared_alus(self):
        workload = random_ilp(96, 0.8, seed=3)
        plain = self.run_us2(workload)
        tracer = CountingTracer()
        pooled = self.run_us2(workload, tracer=tracer, num_alus=1)
        assert_golden(workload, pooled)
        assert pooled.cycles > plain.cycles
        assert tracer.snapshot()["issue.alu_denied"] > 0

    def test_store_forwarding(self):
        workload = store_load_pairs(6)
        plain = self.run_us2(workload, load_latency=8)
        forwarded = self.run_us2(workload, load_latency=8, store_forwarding=True)
        assert_golden(workload, forwarded)
        assert plain.forwarded_loads == 0
        assert forwarded.forwarded_loads > 0
        assert forwarded.cycles < plain.cycles

    def test_self_timed(self):
        workload = spaced_chain(48, 8)
        global_clock = self.run_us2(workload)
        self_timed = self.run_us2(workload, self_timed=True)
        assert_golden(workload, self_timed)
        assert self_timed.cycles > global_clock.cycles
