"""The hybrid Ultrascalar floorplan (the paper's Figure 10 and Section 6).

Clusters of C stations, each an Ultrascalar II grid, connected by the
Ultrascalar I H-tree (:class:`repro.vlsi.htree_layout.HTreeLayout`, one
cluster per leaf).  The side-length recurrence::

    U(n) = O(n + L)                      if n <= C   (one cluster)
    U(n) = O(L + M(n)) + 2 U(n/4)        if n > C

has solution ``U(n) = Theta(M(n) + L sqrt(n)/sqrt(C) + sqrt(n C))`` for
n >= C, minimized at C = Theta(L), giving the optimal
``U(n) = Theta(M(n) + sqrt(n L))``.

Each cluster is the linear Ultrascalar II grid, whose √n station
packing models the paper's Magic layouts' ALU columns off the diagonal
(:meth:`repro.vlsi.grid_layout.Ultrascalar2Layout.side_length`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import HTreeLayout, zero_bandwidth
from repro.vlsi.tech import tracks_to_cm


@dataclass(eq=False)
class HybridLayout(HTreeLayout):
    """Parametric hybrid layout: an H-tree whose leaves are clusters.

    Args:
        n: total stations.
        cluster_size: ``C`` stations per Ultrascalar II cluster.
        num_registers: ``L``.
        word_bits: ``w``.
        bandwidth: memory-bandwidth function M (default zero, matching
            the paper's register-datapath-only empirical layouts, which
            "left space ... for a small datapath of size M(n) = O(1)").
    """

    n: int
    cluster_size: int
    num_registers: int = 32
    word_bits: int = 32
    bandwidth: Callable[[int], float] = zero_bandwidth

    def __post_init__(self) -> None:
        if self.n < 1 or self.cluster_size < 1:
            raise ValueError("n and cluster_size must be positive")
        if self.n % self.cluster_size:
            raise ValueError("cluster_size must divide n")
        self.cluster = Ultrascalar2Layout(self.cluster_size, self.num_registers, self.word_bits)
        self._side_memo: dict[int, float] = {}

    @property
    def num_clusters(self) -> int:
        """Clusters on the H-tree."""
        return self.n // self.cluster_size

    @property
    def cluster_side(self) -> float:
        """One cluster's side in tracks (an Ultrascalar II grid)."""
        return self.cluster.side_length()

    @property
    def leaf_stations(self) -> int:
        """Stations per H-tree leaf: one cluster."""
        return self.cluster_size

    leaf_side = cluster_side

    def root_to_leaf_wire(self, leaves: int | None = None) -> float:
        """Root-to-cluster wire, then across the cluster: Θ(U(n))."""
        return super().root_to_leaf_wire(leaves) + self.cluster_side

    def summary(self) -> dict[str, float]:
        """Headline numbers in physical units."""
        side_cm = tracks_to_cm(self.side_length())
        return {
            "n": self.n,
            "C": self.cluster_size,
            "L": self.num_registers,
            "clusters": self.num_clusters,
            "side_cm": side_cm,
            "area_cm2": side_cm**2,
            "critical_wire_cm": tracks_to_cm(self.critical_wire),
            "stations_per_m2": self.stations_per_m2,
        }


def optimal_cluster_size(n: int, num_registers: int) -> tuple[int, dict[int, float]]:
    """Sweep C over the divisors-of-n powers of two; return (best C, U(C) map).

    The paper: "one can differentiate and solve ... to conclude that the
    side-length is minimized when C = Theta(L)".  This sweep is the
    empirical check (experiment E5).
    """
    if n < 1:
        raise ValueError("n must be positive")
    sides: dict[int, float] = {}
    c = 1
    while c <= n:
        if n % c == 0:
            sides[c] = HybridLayout(n, c, num_registers).side_length()
        c *= 2
    best = min(sides, key=sides.get)
    return best, sides
