"""Analytical reproduction of the paper's complexity results.

* :mod:`repro.analysis.regimes` -- classification of a memory
  bandwidth exponent into the paper's Cases 1-3.
* :mod:`repro.analysis.recurrences` -- the closed-form solution of the
  hybrid's U(n) recurrence (the layouts in :mod:`repro.vlsi` evaluate
  the recurrences themselves).
* :mod:`repro.analysis.asymptotics` -- the paper's Figure 11 comparison
  table as evaluable data (gate delay, wire delay, total delay, area for
  all four designs in all three M(n) regimes).
* :mod:`repro.analysis.fitting` -- log-log growth-exponent fitting used
  to verify measured scaling against predictions.
* :mod:`repro.analysis.crossover` -- the Section 7 dominance analysis
  (Ultrascalar II wins below n = Θ(L^2), Ultrascalar I above; the
  hybrid dominates both).
* :mod:`repro.analysis.cluster` -- optimal hybrid cluster size C = Θ(L).
* :mod:`repro.analysis.three_d` -- the 3-D packaging bounds.
"""

from repro.analysis.asymptotics import FIGURE11, Figure11Row, figure11_table
from repro.analysis.clock_period import (
    ClockProjection,
    PerformanceProjection,
    performance,
    project_hybrid,
    project_ultrascalar1,
    project_ultrascalar2,
)
from repro.analysis.crossover import find_crossover, wire_delay_ratio
from repro.analysis.fitting import fit_exponent, fit_loglog
from repro.analysis.regimes import Regime
from repro.analysis.three_d import THREE_D_BOUNDS, three_d_table

__all__ = [
    "FIGURE11",
    "ClockProjection",
    "PerformanceProjection",
    "performance",
    "project_hybrid",
    "project_ultrascalar1",
    "project_ultrascalar2",
    "Figure11Row",
    "figure11_table",
    "find_crossover",
    "wire_delay_ratio",
    "fit_exponent",
    "fit_loglog",
    "Regime",
    "THREE_D_BOUNDS",
    "three_d_table",
]
