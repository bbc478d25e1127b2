"""Parametric VLSI layout models.

The paper's empirical section lays the three register datapaths out in
Magic (0.35 um CMOS, 3 metal layers) and compares areas.  We replace
the fabricated layouts with a parametric model that keeps the same
*structure* — the same wire counts, the same floorplans, the same
recurrences — so that relative areas, wire lengths, and growth
exponents are preserved (see DESIGN.md, substitution table).

* :mod:`repro.vlsi.tech` -- the paper's one technology as module
  constants, calibrated against its published absolute sizes, and
  ``tracks_to_cm``.
* :mod:`repro.vlsi.cells` -- the station footprint, with the ALU's
  gate count taken from the gate-level netlist of :mod:`repro.circuits`.
* :mod:`repro.vlsi.htree_layout` -- the H-tree recurrence, said once
  over leaves of any size (``HTreeLayout``), and the Ultrascalar I
  floorplan built on it (Figure 6): side length X(n) and root-to-leaf
  wire W(n).
* :mod:`repro.vlsi.grid_layout` -- the Ultrascalar II floorplan
  (Figure 7): side Θ(n + L) linear, Θ((n+L) log(n+L)) for the tree
  variant, with the paper's mixed strategy in between.
* :mod:`repro.vlsi.hybrid_layout` -- Ultrascalar II clusters connected
  by the Ultrascalar I H-tree (Figure 10), the same ``HTreeLayout``
  recurrence with one cluster per leaf: side U(n), optimal cluster
  size C = Θ(L).
* :mod:`repro.vlsi.three_d_layout` -- the Section 7 octree: the same
  ``HTreeLayout`` recurrence with 8 children per node and face-crossing
  switch blocks, and the 3-D hybrid's closed form.
* :mod:`repro.vlsi.wires` -- repeatered wire delay, linear in length.
"""

from repro.vlsi.cells import station_cell, StationCell
from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout, optimal_cluster_size
from repro.vlsi.tech import tracks_to_cm
from repro.vlsi.three_d_layout import (
    ThreeDHybridLayout,
    ThreeDUltrascalar1Layout,
    optimal_cluster_size_3d,
)
from repro.vlsi.wires import wire_delay

__all__ = [
    "ThreeDHybridLayout",
    "ThreeDUltrascalar1Layout",
    "optimal_cluster_size_3d",
    "station_cell",
    "StationCell",
    "Ultrascalar2Layout",
    "Ultrascalar1Layout",
    "HybridLayout",
    "optimal_cluster_size",
    "tracks_to_cm",
    "wire_delay",
]
