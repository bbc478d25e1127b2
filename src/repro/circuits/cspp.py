"""Cyclic segmented parallel prefix (CSPP) — Ultrascalar Memo 1.

The CSPP circuit is the paper's workhorse.  One CSPP per logical
register carries register values around the ring of execution stations
(operator ``a (x) b = a``); three more 1-bit CSPPs (operator AND)
sequence instructions: oldest-station tracking, load/store ordering,
and branch commitment (Figure 5).

The tree construction ties the data lines together at the top of an
ordinary segmented-scan tree (:func:`repro.circuits.prefix.build_segmented_scan`)
and discards the top segment bit, making the prefix wrap around: each
station receives the reduction from the nearest *cyclically* preceding
segment position.  The resulting netlist
is cyclic; the event-driven simulator settles it, and settles in
Θ(log n) gate delays because at least one segment bit always cuts the
ring (the oldest station raises its segment).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.circuits.netlist import Net, Netlist, SimulationResult, assign_bus, bus_value
from repro.circuits.prefix import (
    CopyOp,
    ScanOp,
    build_segmented_scan,
    cyclic_segmented_scan,
)

T = TypeVar("T")


def cyclic_segmented_copy(xs: Sequence[T], segments: Sequence[bool]) -> list[T]:
    """The register-datapath CSPP: each output is the nearest preceding writer's value."""
    return cyclic_segmented_scan(xs, segments, lambda a, b: a)


class CsppTree:
    """A CSPP tree netlist over *n* positions with payload width *width*.

    Parameters:
        n: number of leaf positions (execution stations).
        op: the scan operator (:class:`CopyOp` for register datapaths,
            :class:`AndOp` for sequencing circuits).
        radix: arity of the tree (2 = binary as in the paper's figures;
            4 matches the H-tree floorplan's 4-way recursion).

    The constructed netlist is cyclic (the root's summary re-enters as
    the root's incoming prefix).  Use :meth:`evaluate` to compute outputs
    and measure settle time.
    """

    def __init__(self, n: int, op: ScanOp | None = None, radix: int = 2, name: str = "cspp"):
        if n < 1:
            raise ValueError("need at least one position")
        if radix < 2:
            raise ValueError("radix must be >= 2")
        self.n = n
        self.op = op or CopyOp(1)
        self.radix = radix
        self.netlist = Netlist(name=f"{name}(n={n})")
        nl = self.netlist
        self.values: list[list[Net]] = [
            [nl.add_input(f"{name}_x{i}[{b}]") for b in range(self.op.width)] for i in range(n)
        ]
        self.segments: list[Net] = [nl.add_input(f"{name}_s{i}") for i in range(n)]
        self.outputs: list[list[Net]] = build_segmented_scan(
            nl, self.values, self.segments, self.op, radix
        )
        for i, out in enumerate(self.outputs):
            for b, net in enumerate(out):
                nl.mark_output(f"{name}_y{i}[{b}]", net)

    @property
    def gate_count(self) -> int:
        """Number of gates in the constructed netlist."""
        return self.netlist.gate_count

    def _assignments(self, xs: Sequence[int], segments: Sequence[bool]) -> dict[Net, bool]:
        if len(xs) != self.n or len(segments) != self.n:
            raise ValueError(f"expected {self.n} inputs")
        if not any(segments):
            raise ValueError("CSPP requires at least one segment bit")
        assignment: dict[Net, bool] = {}
        for i in range(self.n):
            assign_bus(assignment, self.values[i], xs[i])
            assignment[self.segments[i]] = bool(segments[i])
        return assignment

    def simulate(self, xs: Sequence[int], segments: Sequence[bool]) -> SimulationResult:
        """Run the event-driven simulator on the given inputs."""
        return self.netlist.simulate(self._assignments(xs, segments))

    def evaluate(self, xs: Sequence[int], segments: Sequence[bool]) -> list[int]:
        """Settled output values, one integer per position."""
        result = self.simulate(xs, segments)
        return [bus_value(result, nets) for nets in self.outputs]

    def settle_time(self, xs: Sequence[int], segments: Sequence[bool]) -> int:
        """Settle time (gate delays) for the given inputs."""
        return self.simulate(xs, segments).settle_time


def build_copy_cspp(n: int, width: int = 1, radix: int = 2) -> CsppTree:
    """A copy-operator CSPP tree carrying *width*-bit payloads (register datapath)."""
    return CsppTree(n, op=CopyOp(width), radix=radix, name="cspp_copy")
