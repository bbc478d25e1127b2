"""Experiment E12 — window size vs. issue width, decoupled.

The paper: "From an empirical point of view, it is doubtless worth
investigating the impact of changing the window size independently from
the issue width.  We know how to separate the two parameters by issuing
instructions to a smaller pool of shared ALUs."

With the Memo-2 shared-ALU scheduler implemented, we run that
investigation: IPC over a (window, ALU-pool) grid, for a
medium-ILP workload.  The qualitative shape: IPC saturates along both
axes, and a large window with few ALUs beats a small window with many —
big windows find the parallelism, ALUs merely execute it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ProcessorConfig, build_processor
from repro.util.tables import Table
from repro.workloads import random_ilp


@dataclass
class WindowIssueResult:
    """The IPC grid."""

    windows: list[int]
    alu_pools: list[int]
    #: ipc[window][alus]
    ipc: dict[int, dict[int, float]]

    def ipc_at(self, window: int, alus: int) -> float:
        """IPC at one grid point."""
        return self.ipc[window][alus]

    def monotone_in_window(self) -> bool:
        """At fixed ALUs, a bigger window never hurts."""
        for alus in self.alu_pools:
            series = [self.ipc[w][alus] for w in self.windows]
            if any(b < a - 1e-9 for a, b in zip(series, series[1:])):
                return False
        return True

    def monotone_in_alus(self) -> bool:
        """At fixed window, more ALUs never hurt."""
        for window in self.windows:
            series = [self.ipc[window][a] for a in self.alu_pools]
            if any(b < a - 1e-9 for a, b in zip(series, series[1:])):
                return False
        return True


def run() -> WindowIssueResult:
    """Sweep the (window size, ALU pool) grid."""
    workload = random_ilp(400, 0.55, seed=401)
    windows = [4, 8, 16, 32, 64]
    alu_pools = [1, 2, 4, 8, 16]
    grid: dict[int, dict[int, float]] = {}
    for window in windows:
        grid[window] = {}
        for alus in alu_pools:
            config = ProcessorConfig(
                window_size=window,
                fetch_width=min(window, 16),
                num_alus=min(alus, window),
            )
            grid[window][alus] = build_processor("us1", config).run(
                workload.program, initial_registers=workload.registers_for()
            ).ipc
    return WindowIssueResult(windows=windows, alu_pools=alu_pools, ipc=grid)


def report() -> str:
    """The IPC grid as a table."""
    outcome = run()
    table = Table(
        ["window \\ ALUs"] + [str(a) for a in outcome.alu_pools],
        title="E12 — IPC over (window size, shared-ALU pool) "
        "(the paper's window-vs-issue-width separation, Memo 2)",
    )
    for window in outcome.windows:
        table.add_row(
            [window] + [round(outcome.ipc[window][a], 2) for a in outcome.alu_pools]
        )
    return table.render()
