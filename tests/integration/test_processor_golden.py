"""Integration: every processor model executes programs correctly.

Differential testing against the golden sequential interpreter: same
final registers, same memory, same committed dynamic trace — across
window sizes, cluster sizes, predictors, and memory systems.
"""

import pytest

from repro.frontend.branch_predictor import AlwaysNotTaken, AlwaysTaken, BimodalPredictor
from repro.isa import assemble
from repro.isa.interpreter import MachineState, run_program
from repro.memory.interleaved_cache import InterleavedCache
from repro.network.fattree import FatTree, bandwidth_constant
from repro.api import CachedMemory, IdealMemory, ProcessorConfig, build_processor
from repro.verify.invariants import InvariantChecker
from repro.workloads import (
    daxpy_loop,
    dependency_chain,
    independent_ops,
    paper_sequence,
    pointer_chase,
    random_ilp,
    reduction_loop,
)
from tests.oracles import memory_stream

WORKLOADS = [
    paper_sequence(),
    dependency_chain(20),
    independent_ops(20),
    daxpy_loop(6),
    reduction_loop(8),
    pointer_chase(5),
    memory_stream(6),
    random_ilp(40, 0.3, seed=11),
    random_ilp(40, 0.8, seed=12),
]


def golden_run(workload):
    state = MachineState(workload.registers_for(), dict(workload.memory_image))
    return run_program(workload.program, state=state)


#: the three designs; the hybrid keeps its short test id, ``hyb``
KINDS = ["us1", "us2", pytest.param("hybrid", id="hyb")]


def run_on(workload, kind, window=16, cluster=4, predictor=None, memory=None):
    config = ProcessorConfig(window_size=window, fetch_width=4)
    mem = memory if memory is not None else IdealMemory()
    mem.load_image(workload.memory_image)
    return build_processor(kind, config, cluster_size=cluster).run(
        workload.program,
        memory=mem,
        predictor=predictor,
        initial_registers=workload.registers_for(),
    )


def assert_matches_golden(workload, result):
    golden = golden_run(workload)
    assert result.halted == golden.halted
    assert result.registers == golden.state.registers, "final registers diverge"
    expected_memory = dict(workload.memory_image)
    expected_memory.update(golden.state.memory)
    for address, value in expected_memory.items():
        assert result.memory.get(address, 0) == value, f"memory diverges at {address:#x}"
    got = [(s.static_index, s.result, s.address, s.taken) for s in result.committed]
    want = [(s.static_index, s.result, s.address, s.taken) for s in golden.trace]
    assert got == want, "committed trace diverges"


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("kind", KINDS)
class TestGoldenEquivalence:
    def test_matches_golden(self, workload, kind):
        assert_matches_golden(workload, run_on(workload, kind))


@pytest.mark.parametrize("window", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("kind", ["us1", "us2"])
class TestWindowSizes:
    def test_any_window_is_correct(self, window, kind):
        workload = random_ilp(30, 0.5, seed=21)
        assert_matches_golden(workload, run_on(workload, kind, window=window))

    def test_loops_with_any_window(self, window, kind):
        workload = daxpy_loop(4)
        assert_matches_golden(workload, run_on(workload, kind, window=window))


@pytest.mark.parametrize("cluster", [1, 2, 4, 8, 16])
class TestClusterSizes:
    def test_hybrid_correct_at_any_cluster_size(self, cluster):
        workload = daxpy_loop(5)
        assert_matches_golden(
            workload, run_on(workload, "hybrid", window=16, cluster=cluster)
        )


class TestClusterValidation:
    def test_cluster_must_divide_window(self):
        with pytest.raises(ValueError, match="cluster_size must divide"):
            build_processor("hybrid", ProcessorConfig(window_size=16), cluster_size=3)


@pytest.mark.parametrize(
    "predictor_factory",
    [AlwaysTaken, AlwaysNotTaken, lambda: BimodalPredictor(size=64)],
    ids=["taken", "not-taken", "bimodal"],
)
@pytest.mark.parametrize("kind", KINDS)
class TestRealPredictors:
    """Mispredictions and squashes must never corrupt architectural state."""

    def test_loopy_code_with_imperfect_prediction(self, predictor_factory, kind):
        workload = daxpy_loop(8)
        result = run_on(workload, kind, predictor=predictor_factory())
        assert_matches_golden(workload, result)

    def test_branchy_code_with_imperfect_prediction(self, predictor_factory, kind):
        workload = reduction_loop(10)
        result = run_on(workload, kind, predictor=predictor_factory())
        assert_matches_golden(workload, result)


class TestMispredictionAccounting:
    def test_always_taken_on_loop_exit_mispredicts(self):
        workload = reduction_loop(5)
        result = run_on(workload, "us1", predictor=AlwaysNotTaken())
        # the backward branch is taken 4 times: 4 mispredictions at least
        assert result.mispredictions >= 4

    def test_squashed_work_is_counted(self):
        workload = reduction_loop(5)
        result = run_on(workload, "us1", predictor=AlwaysNotTaken())
        assert result.squashed > 0

    def test_perfect_prediction_no_squashes_straightline(self):
        workload = random_ilp(30, 0.5, seed=31)
        result = run_on(workload, "us1")
        assert result.mispredictions == 0
        assert result.squashed == 0


class TestCachedMemory:
    def test_correct_through_interleaved_cache(self):
        workload = daxpy_loop(6)
        cache = InterleavedCache(banks=2, lines_per_bank=4, words_per_line=2)
        result = run_on(workload, "us1", memory=CachedMemory(cache))
        assert_matches_golden(workload, result)

    def test_correct_through_fat_tree_throttling(self):
        workload = memory_stream(8)
        tree = FatTree(16, bandwidth_constant(1.0), radix=4)
        cache = InterleavedCache(banks=2, lines_per_bank=4, fat_tree=tree)
        result = run_on(workload, "us2", memory=CachedMemory(cache))
        assert_matches_golden(workload, result)

    def test_bandwidth_throttling_costs_cycles(self):
        workload = memory_stream(12)
        fast = run_on(workload, "us1")
        tree = FatTree(16, bandwidth_constant(1.0), radix=4)
        cache = InterleavedCache(banks=1, lines_per_bank=4, fat_tree=tree)
        slow = run_on(workload, "us1", memory=CachedMemory(cache))
        assert slow.cycles > fast.cycles


class TestThroughputOrdering:
    """The paper's qualitative claims about the three designs."""

    def test_us2_never_beats_us1(self):
        # "stations idle waiting for everyone to finish before refilling"
        for workload in (dependency_chain(30), random_ilp(60, 0.5, seed=41)):
            us1 = run_on(workload, "us1")
            us2 = run_on(workload, "us2")
            assert us2.cycles >= us1.cycles

    def test_hybrid_between_us1_and_us2(self):
        workload = random_ilp(60, 0.5, seed=42)
        us1 = run_on(workload, "us1")
        us2 = run_on(workload, "us2")
        hybrid = run_on(workload, "hybrid", cluster=4)
        assert us1.cycles <= hybrid.cycles <= us2.cycles

    def test_window_one_is_sequential(self):
        workload = dependency_chain(10)
        result = run_on(workload, "us1", window=1)
        # one station: fetch, execute, commit one instruction at a time
        assert result.ipc <= 1.0


@pytest.mark.parametrize("kind", KINDS[1:])
class TestProgramsWithoutHalt:
    """A program that runs off its end still drains: the last, partly
    filled cluster (or batch) frees once nothing more can be fetched."""

    def test_three_instructions_without_halt_finish(self, kind):
        program = assemble(
            """
            addi r1, r0, 1
            addi r2, r1, 2
            add  r3, r1, r2
            """
        )
        config = ProcessorConfig(window_size=8, fetch_width=4, max_cycles=100)
        result = build_processor(kind, config, cluster_size=2).run(program)
        assert result.instructions_committed == 3
        assert result.cycles < 20
        assert result.registers[1:4] == [1, 3, 4]
        assert not result.halted


@pytest.mark.parametrize("kind", KINDS)
def test_squash_restores_nearest_writer(kind):
    """A wrong-path writer of r1 is squashed; the correct-path reader must
    link back to the older, still-running writer (the slow divide), not
    to the register file."""
    program = assemble(
        """
        li   r2, 100
        li   r3, 7
        div  r1, r2, r3
        beq  r0, r0, skip
        addi r1, r0, 99
    skip:
        addi r4, r1, 1
        halt
        """
    )
    config = ProcessorConfig(window_size=8, fetch_width=8)
    result = build_processor(kind, config, cluster_size=4).run(
        program, predictor=AlwaysNotTaken(), cycle_hook=InvariantChecker()
    )
    assert result.mispredictions == 1
    assert result.registers[4] == 100 // 7 + 1


class TestLargeN:
    """The event-driven ring runs the paper's wide windows (hundreds of
    stations, thousands of instructions) at test speed."""

    def test_large_window_runs_quickly_and_correctly(self):
        workload = random_ilp(2000, 0.5, seed=75)
        config = ProcessorConfig(window_size=512, fetch_width=64)
        result = build_processor("us1", config).run(
            workload.program, initial_registers=workload.registers_for()
        )
        golden = run_program(workload.program, state=MachineState(workload.registers_for()))
        assert result.registers == golden.state.registers

    def test_ipc_grows_with_window_until_saturation(self):
        workload = random_ilp(1500, 0.3, seed=76)
        ipcs = []
        for window in (8, 32, 128, 512):
            config = ProcessorConfig(window_size=window, fetch_width=window)
            result = build_processor("us1", config).run(
                workload.program, initial_registers=workload.registers_for()
            )
            ipcs.append(result.ipc)
        assert ipcs == sorted(ipcs)
        assert ipcs[-1] > ipcs[0]
