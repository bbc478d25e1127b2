"""Reproduction of *A Comparison of Scalable Superscalar Processors* (SPAA 1999).

This package implements, in pure Python, the three scalable
superscalar microarchitectures compared by Kuszmaul, Henry, and Loh:

* :mod:`repro.ultrascalar` -- the Ultrascalar I (CSPP ring datapath), the
  Ultrascalar II (mesh-of-trees grid datapath) and the hybrid clustered
  processor, as cycle-accurate behavioural simulators.
* :mod:`repro.circuits` -- a gate-level netlist framework with an
  event-driven timing simulator, used to *measure* the paper's gate-delay
  claims on real circuit constructions (cyclic segmented parallel prefix,
  mux rings, comparator columns, fan-out trees).
* :mod:`repro.vlsi` -- a parametric layout model (standard cells, H-tree,
  grid and hybrid floorplans) reproducing the paper's area and wire-length
  recurrences and its empirical Magic-layout density comparison.
* :mod:`repro.analysis` -- recurrence solvers, asymptotic tables
  (the paper's Figure 11), crossover and cluster-size analysis, and 3-D
  packaging bounds.
* :mod:`repro.isa`, :mod:`repro.memory`, :mod:`repro.network`,
  :mod:`repro.frontend`, :mod:`repro.baseline`, :mod:`repro.workloads` --
  the substrates: a simple RISC ISA with golden interpreter, interleaved
  caches behind fat-tree networks, trace-cache fetch with branch
  prediction, an idealized dataflow baseline, and workload generators.

See ``DESIGN.md`` for the full system inventory and the per-experiment
index, and ``EXPERIMENTS.md`` for paper-vs-measured results.
"""

from repro._version import __version__

__all__ = ["__version__"]
