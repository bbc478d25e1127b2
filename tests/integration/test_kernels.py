"""Integration: realistic kernels run correctly on every processor.

Bubble sort (data-dependent branches), matrix multiply (nested loops),
and Fibonacci (tight serial loop) — with realistic predictors and both
memory systems.
"""

import pytest

from repro.frontend.branch_predictor import BimodalPredictor, GSharePredictor
from repro.isa.interpreter import MachineState, run_program
from repro.memory import ClusteredMemory
from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.workloads import (
    bubble_sort,
    fib_value,
    fibonacci,
    matmul,
    repeated_reduction,
)
from tests.oracles import expected_matmul


def run_on(workload, kind="us1", predictor=None, memory=None, window=16):
    config = ProcessorConfig(window_size=window, fetch_width=4, max_cycles=5_000_000)
    mem = memory if memory is not None else IdealMemory()
    mem.load_image(workload.memory_image)
    return build_processor(kind, config, cluster_size=4).run(
        workload.program,
        memory=mem,
        predictor=predictor,
        initial_registers=workload.registers_for(),
    )


class TestBubbleSort:
    VALUES = [23, 5, 91, 1, 44, 17, 8, 62]

    @pytest.mark.parametrize("kind", ["us1", "us2", pytest.param("hybrid", id="hyb")])
    def test_sorts_on_every_processor(self, kind):
        workload = bubble_sort(self.VALUES)
        result = run_on(workload, kind)
        got = [result.memory[1024 + 4 * i] for i in range(len(self.VALUES))]
        assert got == sorted(self.VALUES)

    def test_with_bimodal_predictor(self):
        workload = bubble_sort(self.VALUES)
        result = run_on(workload, predictor=BimodalPredictor(size=64))
        got = [result.memory[1024 + 4 * i] for i in range(len(self.VALUES))]
        assert got == sorted(self.VALUES)
        assert result.mispredictions > 0  # data-dependent branches hurt

    def test_already_sorted_input_fast_path(self):
        workload = bubble_sort([1, 2, 3, 4])
        result = run_on(workload)
        got = [result.memory[1024 + 4 * i] for i in range(4)]
        assert got == [1, 2, 3, 4]

    def test_gshare_beats_static_on_sort(self):
        from repro.frontend.branch_predictor import AlwaysNotTaken

        workload = bubble_sort(self.VALUES)
        static = run_on(workload, predictor=AlwaysNotTaken())
        gshare = run_on(workload, predictor=GSharePredictor(size=256))
        assert gshare.mispredictions < static.mispredictions


class TestMatmul:
    def test_matches_reference(self):
        workload = matmul(3)
        result = run_on(workload, window=32)
        for address, value in expected_matmul(3, workload).items():
            assert result.memory[address] == value

    def test_matches_golden_trace(self):
        workload = matmul(2)
        golden = run_program(
            workload.program,
            state=MachineState(workload.registers_for(), dict(workload.memory_image)),
        )
        result = run_on(workload)
        assert result.registers == golden.state.registers
        assert len(result.committed) == golden.dynamic_length

    def test_wider_window_helps(self):
        workload = matmul(3)
        narrow = run_on(workload, window=4)
        wide = run_on(workload, window=32)
        assert wide.cycles < narrow.cycles


class TestFibonacci:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
    def test_values(self, n):
        result = run_on(fibonacci(n))
        assert result.registers[3] == fib_value(n)

    def test_serial_chain_caps_ipc(self):
        # the loop's recurrence (add -> mov) is a 2-op serial chain per
        # 5-op iteration, so the dataflow limit is 5/2 = 2.5 IPC; a wide
        # window reaches but cannot exceed it
        result = run_on(fibonacci(30), window=64)
        assert result.ipc == pytest.approx(2.5, abs=0.15)


class TestClusteredMemoryIntegration:
    def test_repeated_reduction_correct_and_saves_bandwidth(self):
        workload = repeated_reduction(8, 4)
        golden = run_program(
            workload.program,
            state=MachineState(workload.registers_for(), dict(workload.memory_image)),
        )
        memory = ClusteredMemory(cluster_size=8)
        result = run_on(workload, memory=memory)
        assert result.registers == golden.state.registers
        assert memory.stats.bandwidth_saved > 0.3

    def test_sort_correct_through_cluster_caches(self):
        workload = bubble_sort([9, 3, 7, 1])
        memory = ClusteredMemory(cluster_size=4)
        result = run_on(workload, memory=memory)
        got = [result.memory[1024 + 4 * i] for i in range(4)]
        assert got == [1, 3, 7, 9]

    def test_more_passes_more_savings(self):
        savings = []
        for passes in (1, 4, 8):
            workload = repeated_reduction(8, passes)
            memory = ClusteredMemory(cluster_size=16)
            run_on(workload, memory=memory)
            savings.append(memory.stats.bandwidth_saved)
        assert savings == sorted(savings)
        assert savings[-1] > savings[0]
