"""Gate-level circuit constructions and an event-driven timing simulator.

The paper's scalability claims are claims about *circuits*: mux rings
settle in Θ(n) gate delays, cyclic segmented parallel-prefix (CSPP) trees
in Θ(log n), the Ultrascalar II comparator grid in Θ(n + L) and its
mesh-of-trees refinement in Θ(log(n + L)).  This subpackage builds those
circuits as real netlists of single-bit gates and *measures* their settle
times with an event-driven simulator, rather than asserting the bounds.

Modules:

* :mod:`repro.circuits.netlist` -- flat-array netlists (a net is an
  ``int`` index, a gate a row of parallel lists), the unit-delay
  simulator (every gate takes one gate delay; cyclic netlists supported
  via fixed-point settling) and
  the bus codec (``assign_bus`` drives a bus with an integer,
  ``bus_value`` reads one back).
* :mod:`repro.circuits.prefix` -- the behavioural cyclic segmented scan
  (the reference used for property testing) and the one segmented-scan
  tree builder (:func:`~repro.circuits.prefix.build_segmented_scan`, any
  radix and operator) behind every prefix tree.
* :mod:`repro.circuits.cspp` -- the cyclic segmented parallel prefix of
  Ultrascalar Memo 1: the CSPP tree netlist and its behavioural copy
  model.
* :mod:`repro.circuits.mux_ring` -- the linear-gate-delay mux ring of the
  paper's Figure 1.
* :mod:`repro.circuits.fanout` -- buffer fan-out trees (Figure 8).
* :mod:`repro.circuits.comparator` -- register-number equality
  comparators used by the Ultrascalar II columns.
* :mod:`repro.circuits.grid` -- the Ultrascalar II register-routing
  network: linear comparator columns (Figure 7) and the mesh-of-trees
  version (Figure 8).
* :mod:`repro.circuits.alu` -- a gate-level ripple-carry ALU used for
  standard-cell counts in the VLSI model.
"""

from repro.circuits.cspp import CsppTree, cyclic_segmented_copy, cyclic_segmented_scan
from repro.circuits.grid import GridNetwork, TreeGridNetwork, route_arguments
from repro.circuits.mux_ring import MuxRing
from repro.circuits.netlist import GateKind, Net, Netlist, SimulationResult
from repro.circuits.prefix import build_segmented_scan

__all__ = [
    "CsppTree",
    "cyclic_segmented_copy",
    "cyclic_segmented_scan",
    "GridNetwork",
    "TreeGridNetwork",
    "route_arguments",
    "MuxRing",
    "GateKind",
    "Net",
    "Netlist",
    "SimulationResult",
    "build_segmented_scan",
]
