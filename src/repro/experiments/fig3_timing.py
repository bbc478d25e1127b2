"""Experiment E1 — the paper's Figure 3 timing diagram.

Runs the 8-instruction sequence of Figure 1 on the Ultrascalar I (window
8, as drawn) and on the idealized dataflow superscalar, and checks they
issue identically: "This timing diagram is exactly what would be
produced in a traditional superscalar processor that has enough
functional units to exploit the parallelism of the code sequence."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ProcessorConfig, build_processor
from repro.baseline.dataflow import dataflow_schedule
from repro.isa.interpreter import MachineState, run_program
from repro.util.tables import Table
from repro.workloads import paper_sequence

#: the spans the paper's Figure 3 draws (issue cycle, end cycle), per
#: instruction in program order, with div=10 / mul=3 / add=1
PAPER_FIGURE3_SPANS = [
    (0, 10),   # R3 = R1 / R2
    (10, 11),  # R0 = R0 + R3
    (0, 1),    # R1 = R5 + R6
    (11, 12),  # R1 = R0 + R1
    (0, 3),    # R2 = R5 * R6
    (3, 4),    # R2 = R2 + R4
    (0, 1),    # R0 = R5 - R6
    (1, 2),    # R4 = R0 + R7
]


@dataclass
class Fig3Result:
    """Everything E1 produces."""

    ultrascalar_spans: list[tuple[int, int]]
    dataflow_spans: list[tuple[int, int]]
    cycles: int
    diagram: str
    matches_paper: bool
    matches_dataflow: bool


def run() -> Fig3Result:
    """Run E1 and compare against the published diagram."""
    workload = paper_sequence()
    config = ProcessorConfig(window_size=9, fetch_width=9)
    result = build_processor("us1", config).run(
        workload.program, initial_registers=workload.registers_for()
    )
    spans = [t.execute_span for t in sorted(result.timings, key=lambda t: t.seq)][:8]

    golden = run_program(
        workload.program, state=MachineState(workload.registers_for())
    )
    schedule = dataflow_schedule(golden.trace)
    oracle_spans = [
        (issue, complete + 1)
        for issue, complete in zip(schedule.issue_cycles, schedule.complete_cycles)
    ][:8]

    return Fig3Result(
        ultrascalar_spans=spans,
        dataflow_spans=oracle_spans,
        cycles=result.cycles,
        diagram=result.timing_diagram(),
        matches_paper=spans == PAPER_FIGURE3_SPANS,
        matches_dataflow=spans == oracle_spans,
    )


def report() -> str:
    """Figure 3 as a table plus the rendered timing diagram."""
    outcome = run()
    workload = paper_sequence()
    table = Table(
        ["Instruction", "Paper (issue, end)", "Ultrascalar I", "Dataflow oracle"],
        title="E1 / Figure 3 — relative execution times (div=10, mul=3, add=1)",
    )
    for i in range(8):
        table.add_row(
            [
                str(workload.program[i]),
                str(PAPER_FIGURE3_SPANS[i]),
                str(outcome.ultrascalar_spans[i]),
                str(outcome.dataflow_spans[i]),
            ]
        )
    footer = (
        f"\nmatches paper: {outcome.matches_paper}; "
        f"matches dataflow oracle: {outcome.matches_dataflow}; "
        f"total cycles: {outcome.cycles} (paper horizon: 12)\n\n"
        + outcome.diagram
    )
    return table.render() + footer
