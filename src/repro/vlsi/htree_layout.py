"""The Ultrascalar I H-tree floorplan (the paper's Figure 6 and Section 3).

The side length obeys the paper's recurrence::

    X(n) = Theta(L) + Theta(M(n)) + 2 X(n/4)    for n > 1
    X(1) = Theta(L)

whose solution falls into three cases by the memory-bandwidth function
M(n); and the root-to-leaf wire length W(n) (the paper's recurrence
``W(n) = X(n/4) + Theta(L + M(n)) + W(n/2)``) has solution
W(n) = Theta(X(n)).  This module evaluates both exactly
(numerically, given concrete constants from the technology model) so the
asymptotic claims can be *measured* by exponent fitting (experiment E6)
and the empirical density comparison regenerated (experiment E3).

:class:`HTreeLayout` holds the recurrence once, over leaves of any
size and any number of children per node: the Ultrascalar I's leaves
are single stations, the hybrid (:mod:`repro.vlsi.hybrid_layout`)
reuses it with one Ultrascalar II cluster per leaf, and the 3-D octree
(:mod:`repro.vlsi.three_d_layout`) with 8 children per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.vlsi.cells import StationCell, station_cell
from repro.vlsi.tech import MEMORY_WIRE_PITCH, PREFIX_NODE_PITCH, tracks_to_cm


def zero_bandwidth(_: int) -> float:
    """M(n) = 0: register datapath only (the paper's Figure 12 layouts
    'implement communication among instructions; they do not implement
    communication to memory')."""
    return 0.0


class HTreeLayout:
    """The tree recurrence shared by the Ultrascalar I, hybrid and octree floorplans.

    Leaves of ``leaf_stations`` stations, each a square of side
    ``leaf_side`` tracks, hang off a ``radix``-way tree: 4 for the planar
    H-tree, 8 for the octree of
    :class:`repro.vlsi.three_d_layout.ThreeDUltrascalar1Layout`.  Every
    level halves the side, so a subtree of ``k`` leaves is two of its
    children wide plus its central switch block::

        X(k) = B(k * leaf_stations) + 2 X(k/radix)    for k > 1
        X(1) = leaf_side

    where ``B(m)`` is the block side at a subtree of ``m`` stations.  The
    leaf count is rounded up to a power of ``radix``.  Subclasses are
    dataclasses providing ``n``, ``num_registers``, ``word_bits`` and
    ``bandwidth`` fields, the ``leaf_stations`` and ``leaf_side``
    attributes, and a ``_side_memo`` dict.
    """

    #: children per tree node; a structural constant of each floorplan
    radix = 4

    def _rounded_leaves(self) -> int:
        leaves = 1
        while leaves < self.n // self.leaf_stations:
            leaves *= self.radix
        return leaves

    @property
    def register_wires(self) -> int:
        """Datapath wires per H-tree link: L x (w + 1)."""
        return self.num_registers * (self.word_bits + 1)

    def switch_block_side(self, stations: int) -> float:
        """Side of the central block at a subtree of *stations* stations.

        Θ(L) register-prefix cells plus Θ(M(stations)) memory-tree cells,
        as in Figure 6's central cross of P and M nodes.
        """
        register_part = self.register_wires * PREFIX_NODE_PITCH
        memory_part = self.bandwidth(stations) * self.word_bits * MEMORY_WIRE_PITCH
        return register_part + memory_part

    def side_length(self, leaves: int | None = None) -> float:
        """X(leaves) in tracks (the side-length recurrence, exactly)."""
        leaves = self._rounded_leaves() if leaves is None else leaves
        if leaves <= 1:
            return self.leaf_side
        if leaves not in self._side_memo:
            self._side_memo[leaves] = (
                self.switch_block_side(leaves * self.leaf_stations)
                + 2 * self.side_length(leaves // self.radix)
            )
        return self._side_memo[leaves]

    def root_to_leaf_wire(self, leaves: int | None = None) -> float:
        """W(leaves) in tracks, from the root down to a leaf.

        The route descends one tree level at a time: from the centre of
        a k-leaf square (cube) to the centre of its k/radix-leaf child
        is X(k)/4 along each of the level's d axes, d = 2 for the
        quadtree and 3 for the octree, plus the traversal of the
        level's switch block.  Summing over levels gives the paper's
        solution W(n) = Theta(X(n)) exactly (every leaf is equidistant
        from the root, as the paper observes).
        """
        axes = self.radix.bit_length() - 1
        total = 0.0
        k = self._rounded_leaves() if leaves is None else leaves
        while k > 1:
            total += (
                self.side_length(k) * axes / 4.0
                + self.switch_block_side(k * self.leaf_stations)
            )
            k //= self.radix
        return total

    @property
    def critical_wire(self) -> float:
        """Longest datapath signal: up the tree and back down, 2 W(n)."""
        return 2.0 * self.root_to_leaf_wire()

    @property
    def stations_per_m2(self) -> float:
        """Density in stations per square metre (the paper's metric)."""
        side_cm = tracks_to_cm(self.side_length())
        return self.n / (side_cm / 100.0) ** 2


@dataclass(eq=False)
class Ultrascalar1Layout(HTreeLayout):
    """Parametric Ultrascalar I layout: an H-tree whose leaves are stations.

    Args:
        n: number of execution stations (power of 4 for the H-tree;
            other sizes are rounded up for the recurrence).
        num_registers: ``L``.
        word_bits: ``w``.
        bandwidth: the memory-bandwidth function ``M`` (subtree size ->
            words/cycle); default zero to match the paper's Figure 12
            register-datapath-only layouts.
    """

    n: int
    num_registers: int = 32
    word_bits: int = 32
    bandwidth: Callable[[int], float] = zero_bandwidth

    leaf_stations = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        self.station: StationCell = station_cell(self.num_registers, self.word_bits)
        self._side_memo: dict[int, float] = {}

    @property
    def leaf_side(self) -> float:
        """One station's side in tracks."""
        return self.station.side_tracks

    def summary(self) -> dict[str, float]:
        """Headline numbers in physical units."""
        side_cm = tracks_to_cm(self.side_length())
        return {
            "n": self.n,
            "L": self.num_registers,
            "side_cm": side_cm,
            "area_cm2": side_cm**2,
            "critical_wire_cm": tracks_to_cm(self.critical_wire),
            "stations_per_m2": self.stations_per_m2,
        }
