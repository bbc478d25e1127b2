"""Experiment E15 — available ILP at very large windows.

The paper motivates scalability with the ILP-limits literature: "Lam
and Wilson suggest that ILP of ten to twenty is available with an
infinite instruction window"; "Patt et al argue that a window size of
1000's is the best way to use large chips"; and closes: "The amount of
parallelism available in a thousand-wide instruction window ... is not
well understood."

This experiment runs that study on synthetic dependence graphs: IPC
of the Ultrascalar I versus window size (8 → 2048) for a range of
dependence densities.  The curves saturate at each workload's dataflow
limit — low-density code keeps gaining IPC deep into thousand-wide
windows, which is precisely the regime the Ultrascalar is built for.

Each program runs once through the golden interpreter, and the IPC at
each window comes from the scheduling recurrence
(:func:`repro.baseline.dataflow.dataflow_schedule`) with the ring's
window ``n`` and fetch width ``min(n, 64)``.  On these branch-free,
memory-free programs the recurrence is the Ultrascalar I ring's exact
timing; the unit tests run the ring at every default point and pin the
two equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baseline.dataflow import dataflow_schedule
from repro.isa.interpreter import MachineState, run_program
from repro.util.tables import Table
from repro.workloads import Workload, random_ilp


@dataclass
class IlpCurve:
    """IPC vs window for one dependence density."""

    density: float
    windows: list[int]
    ipc: list[float]
    #: cycles per window
    cycles: list[int]
    #: the swept program
    workload: Workload

    @property
    def saturation_ipc(self) -> float:
        """IPC at the largest window (the available-ILP estimate)."""
        return self.ipc[-1]

    def monotone(self) -> bool:
        """Bigger windows never hurt."""
        return all(b >= a - 1e-9 for a, b in zip(self.ipc, self.ipc[1:]))

    def gain_beyond(self, window: int) -> float:
        """IPC multiplier from the nearest swept window >= *window* to
        the largest window."""
        index = next(
            (i for i, w in enumerate(self.windows) if w >= window),
            len(self.windows) - 1,
        )
        at = self.ipc[index]
        return self.saturation_ipc / at if at else float("inf")


@dataclass
class IlpLimitsResult:
    """All curves."""

    curves: list[IlpCurve]

    def thousand_wide_window_pays(self) -> bool:
        """Patt et al.'s claim (as cited by the paper): thousand-wide
        windows are worth building — every density still gains at least
        1.5x going from a 128-entry window to the largest swept."""
        return all(curve.gain_beyond(128) >= 1.5 for curve in self.curves)

    def looser_code_has_more_ilp(self) -> bool:
        """At every window, lower dependence density means higher IPC."""
        by_density = sorted(self.curves, key=lambda c: c.density)
        for i in range(len(by_density[0].windows)):
            ipcs = [curve.ipc[i] for curve in by_density]
            if ipcs != sorted(ipcs, reverse=True):
                return False
        return True


def run() -> IlpLimitsResult:
    """Sweep (density, window size); IPC of the Ultrascalar I ring."""
    windows = [8, 32, 128, 512, 2048]
    curves = []
    for density in [0.2, 0.5, 0.8]:
        workload = random_ilp(4000, density, seed=int(1000 * density) + 7)
        trace = run_program(
            workload.program, state=MachineState(workload.registers_for(), {})
        ).trace
        ipcs, cycles = [], []
        for window in windows:
            schedule = dataflow_schedule(
                trace, fetch_width=min(window, 64), window_size=window
            )
            ipcs.append(schedule.ipc)
            cycles.append(schedule.cycles)
        curves.append(
            IlpCurve(
                density=density, windows=windows, ipc=ipcs, cycles=cycles, workload=workload
            )
        )
    return IlpLimitsResult(curves=curves)


def report() -> str:
    """The ILP-vs-window table."""
    outcome = run()
    windows = outcome.curves[0].windows
    table = Table(
        ["dependence density"] + [f"n={w}" for w in windows],
        title="E15 — IPC vs window size at large n (Ultrascalar I; "
        "the thousand-wide-window study the paper calls for)",
    )
    for curve in outcome.curves:
        table.add_row(
            [curve.density] + [round(v, 2) for v in curve.ipc]
        )
    return table.render()
