"""Experiment E14 — end-to-end performance: IPC x projected clock rate.

The paper compares VLSI complexities because they "have implications
therefore on clock speeds"; combined with the behavioural result that
all three designs extract the same ILP, the end-to-end story is
IPC / clock-period.  This experiment takes IPC from the scheduling
recurrence, projects clock periods from the layout models, and
multiplies — showing where the hybrid's shorter wires turn into real
speedup, and how the conventional superscalar's quadratic stages
collapse at high width.

The program is branch-free, memory-free ``random_ilp``.  It runs once
through the golden interpreter, and
:func:`repro.baseline.dataflow.dataflow_schedule` times it at each
window ``n`` with fetch width ``min(n, 64)``: on such a program that is
the Ultrascalar I ring's exact timing, and the unit tests run the ring
at every default point and pin the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.clock_period import (
    PerformanceProjection,
    performance,
    project_hybrid,
    project_ultrascalar1,
    project_ultrascalar2,
)
from repro.baseline.complexity import conventional_superscalar_delay
from repro.baseline.dataflow import dataflow_schedule
from repro.isa.interpreter import MachineState, run_program
from repro.util.tables import Table
from repro.workloads import Workload, random_ilp


@dataclass
class ProjectionRow:
    """One window size's projection for all designs."""

    n: int
    ipc: float
    cycles: int
    us1: PerformanceProjection
    us2: PerformanceProjection
    hybrid: PerformanceProjection
    conventional_period: float

    @property
    def conventional_performance(self) -> float:
        """IPC / conventional critical-stage delay."""
        return self.ipc / self.conventional_period


@dataclass
class ProjectionResult:
    """The whole sweep."""

    rows: list[ProjectionRow]
    L: int
    #: the program IPC is measured on
    workload: Workload

    def hybrid_wins_at_scale(self) -> bool:
        """At the largest n, the hybrid posts the best projection."""
        last = self.rows[-1]
        return last.hybrid.instructions_per_time >= max(
            last.us1.instructions_per_time,
            last.us2.instructions_per_time,
            last.conventional_performance,
        )

    def conventional_collapses(self) -> bool:
        """The conventional projection eventually *falls* as n grows —
        the quadratic wall eats the extra IPC."""
        perf = [row.conventional_performance for row in self.rows]
        return perf[-1] < max(perf)


def run() -> ProjectionResult:
    """Sweep window sizes; IPC of the Ultrascalar I ring, clocks from layouts."""
    L = 32
    workload = random_ilp(3000, 0.35, seed=601)
    trace = run_program(
        workload.program, state=MachineState(workload.registers_for(), {})
    ).trace
    rows: list[ProjectionRow] = []
    for n in [16, 64, 256, 1024]:
        schedule = dataflow_schedule(trace, fetch_width=min(n, 64), window_size=n)
        ipc = schedule.ipc
        rows.append(
            ProjectionRow(
                n=n,
                ipc=ipc,
                cycles=schedule.cycles,
                us1=performance(project_ultrascalar1(n, L), ipc),
                us2=performance(project_ultrascalar2(n, L), ipc),
                hybrid=performance(project_hybrid(n, L), ipc),
                conventional_period=conventional_superscalar_delay(
                    max(2, n // 8), window_size=n, num_registers=L
                ).critical,
            )
        )
    return ProjectionResult(rows=rows, L=L, workload=workload)


def report() -> str:
    """The projection table (relative units)."""
    outcome = run()
    table = Table(
        ["window n", "IPC", "US-I perf", "US-II perf", "Hybrid perf", "Conventional perf"],
        title=f"E14 — end-to-end projection: IPC / clock period (relative units, L={outcome.L})",
    )
    scale = 1000.0
    for row in outcome.rows:
        table.add_row(
            [
                row.n,
                round(row.ipc, 2),
                round(scale * row.us1.instructions_per_time, 2),
                round(scale * row.us2.instructions_per_time, 2),
                round(scale * row.hybrid.instructions_per_time, 2),
                round(scale * row.conventional_performance, 2),
            ]
        )
    return table.render()
