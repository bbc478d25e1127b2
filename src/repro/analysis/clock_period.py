"""Clock-period and end-to-end performance projection.

The paper: "The only differences between the processors are in their
VLSI complexities, which include gate delays, wire delays, and area,
and which have implications therefore on clock speeds."

This module combines the two delay components the paper's Figure 11
separates — gate delay (measured or from the Θ-expressions) and wire
delay (from the layout models, linear in wire length with repeaters) —
into a projected clock period, and multiplies by simulated IPC to get
the end-to-end projection: instructions per (arbitrary) time unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout
from repro.vlsi.wires import wire_delay


@dataclass(frozen=True)
class ClockProjection:
    """One design point's projected timing."""

    processor: str
    n: int
    L: int
    gate_delays: float
    wire_delay_units: float

    @property
    def period(self) -> float:
        """Clock period in gate-delay units: gates + repeatered wires.

        One Ultrascalar clock must settle the whole datapath ("all
        communications between components being completed in one clock
        cycle"), so the period is the critical gate path plus the
        critical wire's delay.
        """
        return self.gate_delays + self.wire_delay_units

    @property
    def frequency(self) -> float:
        """Relative clock frequency (1 / period)."""
        return 1.0 / self.period


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


def project_ultrascalar1(n: int, L: int) -> ClockProjection:
    """US-I: Θ(log n) gates + H-tree critical wire."""
    layout = Ultrascalar1Layout(n, L)
    return ClockProjection(
        processor="ultrascalar1",
        n=n,
        L=L,
        gate_delays=2.0 * _log2(n),  # CSPP up + down sweeps
        wire_delay_units=wire_delay(layout.critical_wire),
    )


def project_ultrascalar2(n: int, L: int, variant: str = "mixed") -> ClockProjection:
    """US-II: variant-dependent gates + grid critical wire."""
    layout = Ultrascalar2Layout(n, L, variant=variant)
    return ClockProjection(
        processor=f"ultrascalar2-{variant}",
        n=n,
        L=L,
        gate_delays=layout.gate_delay(),
        wire_delay_units=wire_delay(layout.critical_wire),
    )


def project_hybrid(n: int, L: int) -> ClockProjection:
    """Hybrid, with clusters of min(L, n) stations (halved until they
    divide n): cluster grid gates + inter-cluster CSPP gates + U(n) wire."""
    c = min(L, n)
    while n % c:
        c //= 2
    layout = HybridLayout(n, max(1, c), L)
    cluster_gates = layout.cluster.gate_delay()
    tree_gates = 2.0 * _log2(max(1, n // max(1, c)))
    return ClockProjection(
        processor="hybrid",
        n=n,
        L=L,
        gate_delays=cluster_gates + tree_gates,
        wire_delay_units=wire_delay(layout.critical_wire),
    )


@dataclass(frozen=True)
class PerformanceProjection:
    """IPC x frequency: relative end-to-end throughput."""

    clock: ClockProjection
    ipc: float

    @property
    def instructions_per_time(self) -> float:
        """Relative performance: IPC / period."""
        return self.ipc * self.clock.frequency


def performance(clock: ClockProjection, ipc: float) -> PerformanceProjection:
    """Bundle a clock projection with a simulated IPC."""
    if ipc < 0:
        raise ValueError("ipc must be non-negative")
    return PerformanceProjection(clock=clock, ipc=ipc)
