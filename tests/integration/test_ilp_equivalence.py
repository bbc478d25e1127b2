"""Integration: the Ultrascalar extracts exactly the ILP of an ideal superscalar.

The paper (Section 2, Figure 3): "the datapath ... exploits the same
instruction-level parallelism as today's superscalars ... This timing
diagram is exactly what would be produced in a traditional superscalar
processor that has enough functional units to exploit the parallelism
of the code sequence."

We verify cycle-exactly: with a window at least as large as the dynamic
instruction count (and fetch width to match), the Ultrascalar I's
per-instruction issue times equal the idealized dataflow schedule's.

The same recurrence, given a window, a fetch width and the number of
stations that refill at a time, is the exact timing of all three
designs: the paper's "identical scheduling policies".
"""

import pytest

from repro.api import PROCESSOR_KINDS, build_processor, cluster_for_window
from repro.baseline.dataflow import dataflow_schedule
from repro.isa.interpreter import MachineState, run_program
from repro.ultrascalar import IdealMemory, ProcessorConfig, make_ultrascalar1
from repro.workloads import (
    daxpy_loop,
    dependency_chain,
    independent_ops,
    jump_chain,
    matmul,
    memory_stream,
    paper_sequence,
    parallel_loads,
    random_ilp,
    reduction_loop,
    store_load_pairs,
)


def issue_times_of(workload, window, fetch_width):
    config = ProcessorConfig(window_size=window, fetch_width=fetch_width)
    memory = IdealMemory()
    memory.load_image(workload.memory_image)
    processor = make_ultrascalar1(
        workload.program, config, memory=memory, initial_registers=workload.registers_for()
    )
    result = processor.run()
    ordered = sorted(result.timings, key=lambda t: t.seq)
    return [t.issue_cycle for t in ordered], result


def oracle_times(workload):
    golden = run_program(
        workload.program,
        state=MachineState(workload.registers_for(), dict(workload.memory_image)),
    )
    return dataflow_schedule(golden.trace)


WORKLOADS = [
    paper_sequence(),
    dependency_chain(25),
    independent_ops(30),
    random_ilp(50, 0.2, seed=51),
    random_ilp(50, 0.5, seed=52),
    random_ilp(50, 0.9, seed=53),
    memory_stream(10),
]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
class TestCycleExactEquivalence:
    def test_issue_times_match_dataflow_oracle(self, workload):
        golden = run_program(
            workload.program,
            state=MachineState(workload.registers_for(), dict(workload.memory_image)),
        )
        n = golden.dynamic_length
        got, _ = issue_times_of(workload, window=n, fetch_width=n)
        want = oracle_times(workload).issue_times()
        assert got == want

    def test_total_cycles_match(self, workload):
        golden = run_program(
            workload.program,
            state=MachineState(workload.registers_for(), dict(workload.memory_image)),
        )
        n = golden.dynamic_length
        _, result = issue_times_of(workload, window=n, fetch_width=n)
        assert result.cycles == oracle_times(workload).cycles


class TestFigure3:
    """The paper's Figure 3 timing diagram, cycle for cycle."""

    def test_exact_figure3_schedule(self):
        workload = paper_sequence()
        times, result = issue_times_of(workload, window=9, fetch_width=9)
        # Figure 3 (div=10, mul=3, add=1):
        #   R3=R1/R2  issues at 0, busy through 9
        #   R0=R0+R3  issues at 10
        #   R1=R5+R6  issues at 0
        #   R1=R0+R1  issues at 11
        #   R2=R5*R6  issues at 0, busy through 2
        #   R2=R2+R4  issues at 3
        #   R0=R5-R6  issues at 0
        #   R4=R0+R7  issues at 1
        assert times[:8] == [0, 10, 0, 11, 0, 3, 0, 1]
        assert result.cycles == 12  # the figure's 12-cycle horizon

    def test_figure3_execution_spans(self):
        workload = paper_sequence()
        _, result = issue_times_of(workload, window=9, fetch_width=9)
        spans = {
            str(t.instruction): t.execute_span
            for t in result.timings
        }
        assert spans["div r3, r1, r2"] == (0, 10)   # ten cycles of divide
        assert spans["mul r2, r5, r6"] == (0, 3)    # three cycles of multiply
        assert spans["add r0, r0, r3"] == (10, 11)

    def test_out_of_order_issue_demonstrated(self):
        """Station 4's instruction "computes right away" while the older
        divide is still running — the paper's out-of-order claim."""
        workload = paper_sequence()
        times, _ = issue_times_of(workload, window=9, fetch_width=9)
        assert times[4] == 0   # R2=R5*R6 issues immediately
        assert times[1] == 10  # while the older R0=R0+R3 waits for the divide


class TestWindowShrinksParallelism:
    def test_small_window_costs_cycles(self):
        workload = random_ilp(60, 0.3, seed=61)
        _, wide = issue_times_of(workload, window=64, fetch_width=16)
        _, narrow = issue_times_of(workload, window=4, fetch_width=4)
        assert narrow.cycles > wide.cycles

    def test_window_beyond_program_changes_nothing(self):
        workload = random_ilp(30, 0.5, seed=62)
        times_a, a = issue_times_of(workload, window=40, fetch_width=40)
        times_b, b = issue_times_of(workload, window=400, fetch_width=40)
        assert times_a == times_b
        assert a.cycles == b.cycles


#: straight-line, looping, jumping and memory-bound code for the sweep
SWEEP_WORKLOADS = [
    random_ilp(300, 0.25, seed=71),
    random_ilp(300, 0.5, seed=72),
    random_ilp(300, 0.75, seed=73),
    daxpy_loop(6),
    reduction_loop(8),
    store_load_pairs(6),
    jump_chain(5),
    memory_stream(20),
    parallel_loads(12),
    paper_sequence(),
    matmul(3),
]


class TestOneRecurrenceForAllDesigns:
    """The three designs differ only in how many stations refill at a
    time: one (US-I), the window (US-II) or a cluster (hybrid).  Given
    that number, the dataflow schedule is each design's exact timing."""

    def test_every_mispredict_free_run_matches(self):
        checked = 0
        for workload in SWEEP_WORKLOADS:
            golden = run_program(
                workload.program,
                state=MachineState(workload.registers_for(), dict(workload.memory_image)),
            )
            for window in (4, 8, 16, 64):
                cluster = cluster_for_window(window)
                for fetch_width in (1, 4, window):
                    config = ProcessorConfig(window_size=window, fetch_width=fetch_width)
                    for kind in PROCESSOR_KINDS:
                        memory = IdealMemory()
                        memory.load_image(dict(workload.memory_image))
                        processor = build_processor(kind, config, cluster_size=cluster)
                        result = processor.run(
                            workload.program,
                            memory=memory,
                            initial_registers=workload.registers_for(),
                        )
                        if result.mispredictions:
                            continue  # the schedule assumes perfect prediction
                        refill = {"us1": 1, "us2": window, "hybrid": cluster}[kind]
                        schedule = dataflow_schedule(
                            golden.trace,
                            fetch_width=fetch_width,
                            window_size=window,
                            cluster_size=refill,
                        )
                        run = (workload.name, kind, window, fetch_width)
                        got = [
                            (t.fetch_cycle, t.issue_cycle, t.complete_cycle, t.commit_cycle)
                            for t in result.timings
                        ]
                        want = [
                            (e.fetch_cycle, e.issue_cycle, e.complete_cycle, e.commit_cycle)
                            for e in schedule.entries
                        ]
                        assert got == want, run
                        assert result.cycles == schedule.cycles, run
                        checked += 1
        # a sweep that skipped nearly everything would prove nothing
        assert checked >= 300, checked
