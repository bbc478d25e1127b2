"""Three-dimensional layout models (the paper's Section 7 discussion).

"In a true three-dimensional packaging technology the Ultrascalar
bounds do improve because, intuitively, there is more space in three
dimensions than in two."

The 3-D analogue of the H-tree is an 8-way recursive cube: each level
splits the stations into octants, and the central switch block carries
the L(w+1) register wires through a *face* rather than an edge — so the
block's side contribution is Θ(√(L w)) instead of Θ(L w):

    X3(n) = Θ(√L') + 2 X3(n/8),   L' = L (w+1) wires

with solution X3(n) = Θ(n^(1/3) √L') — volume Θ(n L'^(3/2)) and wire
delay Θ(n^(1/3) √L'), the paper's bounds.  The octree is the planar
:class:`~repro.vlsi.htree_layout.HTreeLayout` recurrence with radix 8
and a face-crossing switch block, not a second copy of it.  The 3-D
hybrid packs Ultrascalar II clusters into the octree, evaluated in
closed form; sweeping the cluster size reproduces the paper's optimal
C = Θ(L^(3/4)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import HTreeLayout, zero_bandwidth
from repro.vlsi.tech import MEMORY_WIRE_PITCH, PREFIX_NODE_PITCH


@dataclass(eq=False)
class ThreeDUltrascalar1Layout(HTreeLayout):
    """3-D octree layout of the Ultrascalar I.

    The :class:`~repro.vlsi.htree_layout.HTreeLayout` recurrence with
    8 children per node, one station per leaf, and switch blocks whose
    wires cross a face.
    """

    n: int
    num_registers: int = 32
    word_bits: int = 32
    bandwidth: Callable[[int], float] = zero_bandwidth

    radix = 8
    leaf_stations = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        self._side_memo: dict[int, float] = {}

    @property
    def leaf_side(self) -> float:
        """One station's side: its content packs in 3-D, its wires land on a face."""
        wire_face = math.sqrt(self.register_wires) * PREFIX_NODE_PITCH
        content = (self.register_wires * 20.0) ** (1.0 / 3.0)
        return max(wire_face, content)

    def switch_block_side(self, stations: int) -> float:
        """Side of the central block: register wires + memory wires
        crossing a face, Θ(√wires) each."""
        register_part = math.sqrt(self.register_wires) * PREFIX_NODE_PITCH
        memory_wires = self.bandwidth(stations) * self.word_bits
        memory_part = math.sqrt(memory_wires) * MEMORY_WIRE_PITCH
        return register_part + memory_part

    @property
    def volume(self) -> float:
        """Chip volume in tracks cubed: the side length cubed."""
        return self.side_length() ** 3


@dataclass(eq=False)
class ThreeDHybridLayout:
    """3-D hybrid: Ultrascalar II clusters on the octree.

    Shares the wire count and the face-crossing switch block with
    :class:`ThreeDUltrascalar1Layout`.
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
        # an Ultrascalar II cluster is planar logic; in 3-D it folds into
        # a cube of equal volume
        planar = Ultrascalar2Layout(self.cluster_size, self.num_registers, self.word_bits)
        self.cluster_side = planar.side_length() ** (2.0 / 3.0)

    register_wires = HTreeLayout.register_wires
    switch_block_side = ThreeDUltrascalar1Layout.switch_block_side
    volume = ThreeDUltrascalar1Layout.volume

    def side_length(self, clusters: int | None = None) -> float:
        """U3 over the octree of clusters.

        Evaluated in closed form with fractional levels,
        ``U3 = B (2^levels - 1) + 2^levels * cluster_side`` where
        ``levels = log8(m)`` — the exact geometric-sum solution of the
        recurrence, smooth in C so cluster sweeps have no octree
        rounding sawtooth.
        """
        m = (self.n / self.cluster_size) if clusters is None else clusters
        if m <= 1:
            return self.cluster_side
        levels = math.log(m, 8)
        scale = 2.0**levels  # = m^(1/3)
        block = self.switch_block_side(self.n)
        return block * (scale - 1.0) + scale * self.cluster_side


def optimal_cluster_size_3d(
    n: int,
    num_registers: int,
    word_bits: int = 32,
) -> tuple[int, dict[int, float]]:
    """Sweep power-of-two C; the paper predicts the optimum at Θ(L^(3/4))."""
    if n < 1:
        raise ValueError("n must be positive")
    sides: dict[int, float] = {}
    c = 1
    while c <= n:
        if n % c == 0:
            layout = ThreeDHybridLayout(n, c, num_registers, word_bits)
            sides[c] = layout.side_length()
        c *= 2
    best = min(sides, key=sides.get)
    return best, sides
