"""Experiment E10 — ILP equivalence and the conventional quadratic wall.

Three claims:

1. The Ultrascalar I extracts exactly the ILP of an idealized dataflow
   superscalar (cycle-for-cycle, given a big enough window).
2. The Ultrascalar II (no wrap-around) loses throughput by idling.
3. Conventional rename/wakeup/bypass circuits scale quadratically with
   issue width while the Ultrascalar's gate delay scales as Θ(log n) —
   the paper's motivating comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api import IdealMemory, ProcessorConfig, build_processor, cluster_for_window
from repro.baseline.complexity import conventional_superscalar_delay
from repro.baseline.dataflow import dataflow_schedule
from repro.isa.interpreter import MachineState, run_program
from repro.util.tables import Table
from repro.workloads import (
    Workload,
    daxpy_loop,
    dependency_chain,
    independent_ops,
    random_ilp,
    reduction_loop,
)


#: sweep points the runner executes and the cache keys (kwargs for
#: :func:`report`); the workload set is a rich in-code fixture, so the
#: experiment exposes a single canonical point
SWEEP_POINTS: list[dict] = [{}]


@dataclass
class IpcRow:
    """IPC of every design on one workload."""

    workload: str
    dataflow_ipc: float
    us1_ipc: float
    us2_ipc: float
    hybrid_ipc: float
    #: exact on branch-free code; within 10% on loops (the oracle's fetch
    #: model and the commit-lagged oracle predictor differ by at most a
    #: misprediction bubble at loop exit)
    us1_matches_dataflow: bool


@dataclass
class IpcResult:
    """E10 outcome."""

    rows: list[IpcRow]
    conventional_delays: dict[int, float]    # issue width -> critical delay
    ultrascalar_gate_delays: dict[int, float]  # issue width -> Θ(log n)

    def us1_always_matches(self) -> bool:
        """Claim 1 holds on every workload."""
        return all(row.us1_matches_dataflow for row in self.rows)

    def us2_never_faster(self) -> bool:
        """Claim 2: batch idling never beats the wrap-around ring."""
        return all(row.us2_ipc <= row.us1_ipc + 1e-9 for row in self.rows)


def _run_design(workload: Workload, kind: str, window: int) -> float:
    config = ProcessorConfig(window_size=window, fetch_width=window)
    memory = IdealMemory()
    memory.load_image(workload.memory_image)
    processor = build_processor(kind, config, cluster_size=cluster_for_window(window))
    result = processor.run(
        workload.program, memory=memory, initial_registers=workload.registers_for()
    )
    return result.ipc


def run(workloads: list[Workload] | None = None) -> IpcResult:
    """Measure IPC of all designs plus the conventional delay curve."""
    workloads = workloads or [
        dependency_chain(40),
        independent_ops(40),
        random_ilp(60, 0.2, seed=101),
        random_ilp(60, 0.8, seed=102),
        reduction_loop(10),
        daxpy_loop(8),
    ]
    rows = []
    for workload in workloads:
        golden = run_program(
            workload.program,
            state=MachineState(workload.registers_for(), dict(workload.memory_image)),
        )
        n = golden.dynamic_length
        # the oracle fetches like the processor: n-wide, one taken
        # transfer per fetch group
        oracle = dataflow_schedule(golden.trace, fetch_width=n)
        us1 = _run_design(workload, "us1", n)
        us2 = _run_design(workload, "us2", n)
        hybrid = _run_design(workload, "hybrid", n)
        branchy = any(inst.is_branch for inst in workload.program)
        if branchy:
            matches = abs(us1 - oracle.ipc) / oracle.ipc < 0.10
        else:
            matches = math.isclose(us1, oracle.ipc, rel_tol=1e-9)
        rows.append(
            IpcRow(
                workload=workload.name,
                dataflow_ipc=oracle.ipc,
                us1_ipc=us1,
                us2_ipc=us2,
                hybrid_ipc=hybrid,
                us1_matches_dataflow=matches,
            )
        )
    widths = [2, 4, 8, 16, 32, 64]
    conventional = {w: conventional_superscalar_delay(w).critical for w in widths}
    ultrascalar = {w: math.log2(max(2, 8 * w)) for w in widths}  # window = 8x width
    return IpcResult(
        rows=rows,
        conventional_delays=conventional,
        ultrascalar_gate_delays=ultrascalar,
    )


def report() -> str:
    """IPC comparison and the quadratic-vs-logarithmic delay curve."""
    outcome = run()
    table = Table(
        ["Workload", "Dataflow", "US-I", "US-II", "Hybrid", "US-I = oracle?"],
        title="E10 — IPC at window = dynamic length (perfect prediction)",
    )
    for row in outcome.rows:
        table.add_row(
            [
                row.workload,
                round(row.dataflow_ipc, 3),
                round(row.us1_ipc, 3),
                round(row.us2_ipc, 3),
                round(row.hybrid_ipc, 3),
                "yes" if row.us1_matches_dataflow else "NO",
            ]
        )
    delays = Table(
        ["Issue width", "Conventional critical delay", "Ultrascalar gate delay Θ(log n)"],
        title="Conventional quadratic wall vs Ultrascalar logarithmic growth",
    )
    for width, delay in outcome.conventional_delays.items():
        delays.add_row([width, round(delay, 2), round(outcome.ultrascalar_gate_delays[width], 2)])
    return table.render() + "\n\n" + delays.render()


if __name__ == "__main__":  # pragma: no cover
    print(report())
