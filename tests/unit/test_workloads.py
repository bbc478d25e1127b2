"""Unit tests for workload generators (each must run on the golden model)."""

import pytest

from repro.isa.interpreter import MachineState, run_program
from repro.workloads import (
    Workload,
    daxpy_loop,
    dependency_chain,
    independent_ops,
    jump_chain,
    paper_sequence,
    parallel_loads,
    pointer_chase,
    random_ilp,
    reduction_loop,
    repeated_reduction,
    spaced_chain,
    store_load_pairs,
)
from tests.oracles import memory_stream


def run_workload(workload):
    state = MachineState(workload.registers_for(), dict(workload.memory_image))
    return run_program(workload.program, state=state)


class TestPaperSequence:
    def test_has_eight_instructions_plus_halt(self):
        w = paper_sequence()
        assert len(w.program) == 9
        assert w.program[8].is_halt

    def test_matches_figure1_register_usage(self):
        w = paper_sequence()
        # R3 = R1 / R2 first, R4 = R0 + R7 last
        assert str(w.program[0]) == "div r3, r1, r2"
        assert str(w.program[7]) == "add r4, r0, r7"

    def test_initial_r0_is_10(self):
        # Figure 1: "The initial value, equal to 10, is marked ready."
        assert paper_sequence().initial_registers[0] == 10

    def test_runs_to_halt(self):
        result = run_workload(paper_sequence())
        assert result.halted
        assert result.dynamic_length == 9


class TestGenerators:
    def test_dependency_chain_result(self):
        result = run_workload(dependency_chain(10))
        assert result.state.registers[1] == 10  # r1 += r2(=1) ten times

    def test_independent_ops_fill_registers(self):
        result = run_workload(independent_ops(10))
        assert all(v == 7 for v in result.state.registers[2:12])

    def test_daxpy_computes_axpy(self):
        w = daxpy_loop(4)
        result = run_workload(w)
        for i in range(4):
            x = i + 1
            y = 10 * (i + 1)
            assert result.state.memory[2000 + 4 * i] == 3 * x + y

    def test_reduction_sums_array(self):
        result = run_workload(reduction_loop(6))
        assert result.state.registers[3] == sum(range(1, 7))

    def test_pointer_chase_follows_links(self):
        w = pointer_chase(3)
        result = run_workload(w)
        assert result.state.registers[2] == 1000 + 8 * 3

    def test_memory_stream_roundtrips(self):
        result = run_workload(memory_stream(4))
        assert all(result.state.memory[4 * i + 4] == 7 for i in range(4))

    def test_random_ilp_is_deterministic(self):
        a = random_ilp(20, 0.5, seed=42)
        b = random_ilp(20, 0.5, seed=42)
        assert tuple(a.program) == tuple(b.program)
        assert a.initial_registers == b.initial_registers

    def test_random_ilp_density_changes_program(self):
        dense = random_ilp(50, 0.9, seed=1)
        sparse = random_ilp(50, 0.1, seed=1)
        assert tuple(dense.program) != tuple(sparse.program)

    def test_random_ilp_runs(self):
        assert run_workload(random_ilp(40, 0.5, seed=3)).halted

    @pytest.mark.parametrize(
        "factory", [dependency_chain, independent_ops, daxpy_loop, reduction_loop, pointer_chase, memory_stream]
    )
    def test_rejects_non_positive_sizes(self, factory):
        with pytest.raises(ValueError):
            factory(0)

    def test_random_ilp_validation(self):
        with pytest.raises(ValueError):
            random_ilp(0)
        with pytest.raises(ValueError):
            random_ilp(5, dependency_fraction=1.5)

    def test_registers_for_pads(self):
        w = Workload("short", paper_sequence().program, initial_registers=[10, 84])
        assert w.registers_for() == [10, 84] + [0] * 30
        assert store_load_pairs(2).registers_for() == [0] * 32


class TestRemainingWorkloads:
    def test_spaced_chain_runs(self):
        for distance in (1, 4, 8):
            workload = spaced_chain(24, distance)
            result = run_program(
                workload.program, state=MachineState(workload.registers_for())
            )
            assert result.halted
            # the chain register accumulates one per link
            assert result.state.registers[1] == sum(
                1 for i in range(24) if i % distance == 0
            )

    def test_spaced_chain_validation(self):
        with pytest.raises(ValueError):
            spaced_chain(0, 1)
        with pytest.raises(ValueError):
            spaced_chain(10, 0)
        with pytest.raises(ValueError):
            spaced_chain(10, 40)  # register file too small

    def test_store_load_pairs_roundtrip(self):
        workload = store_load_pairs(4)
        result = run_program(
            workload.program, state=MachineState(workload.registers_for())
        )
        # every load sees the stored constant 9
        for i in range(4):
            assert result.state.memory[4096 + 4 * i] == 9

    def test_jump_chain_shape(self):
        workload = jump_chain(blocks=5, block_size=2)
        assert len(workload.program) == 5 * 3 + 1
        result = run_program(
            workload.program, state=MachineState(workload.registers_for())
        )
        assert result.halted
        assert result.dynamic_length == len(workload.program)

    def test_parallel_loads_image(self):
        workload = parallel_loads(6)
        result = run_program(
            workload.program, state=MachineState(workload.registers_for(), dict(workload.memory_image))
        )
        assert result.halted
        loaded = [r for r in result.state.registers if r]
        assert loaded  # values arrived

    def test_repeated_reduction_total(self):
        workload = repeated_reduction(5, 3)
        result = run_program(
            workload.program, state=MachineState(workload.registers_for(), dict(workload.memory_image))
        )
        assert result.state.registers[3] == 3 * sum(range(1, 6))

    @pytest.mark.parametrize(
        "factory,args",
        [
            (store_load_pairs, (0,)),
            (jump_chain, (0,)),
            (parallel_loads, (0,)),
            (repeated_reduction, (0, 1)),
        ],
    )
    def test_validation(self, factory, args):
        with pytest.raises(ValueError):
            factory(*args)
