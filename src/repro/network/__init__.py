"""Interconnection-network substrates.

The Ultrascalar processors use two network families:

* :mod:`repro.network.htree` -- H-tree geometry: the station-to-successor
  distance census over the recursive 4-way layout that places execution
  stations on a square (the paper's Figure 6 floorplan).
* :mod:`repro.network.fattree` -- fat-trees "with bandwidth increasing
  along each link on the way to the root" (Leiserson), used to connect
  stations to the interleaved data cache with capacity ``M(n)`` at the
  root; includes a cycle-level contention model.

The paper also names butterfly networks as an alternative memory
interconnect; it does not model one, and neither does this package.
"""

from repro.network.fattree import FatTree, FatTreeRouting
from repro.network.htree import successor_tree_distances

__all__ = [
    "FatTree",
    "FatTreeRouting",
    "successor_tree_distances",
]
