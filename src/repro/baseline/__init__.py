"""Baselines the paper compares against.

* :mod:`repro.baseline.dataflow` -- the three designs' scheduling
  rules as one recurrence over the golden dynamic trace.  Unbounded, it
  is the paper's "traditional superscalar processor that has enough
  functional units"; with a window it is each design's exact timing,
  and ``repro verify`` checks every mispredict-free run against it.
* :mod:`repro.baseline.complexity` -- the conventional-superscalar
  critical-path delay models of Palacharla, Jouppi & Smith (ISCA '97),
  whose quadratic growth in issue width and window size motivates the
  paper ("all the published circuits are at least quadratic delay").
"""

from repro.baseline.complexity import (
    ConventionalDelays,
    conventional_superscalar_delay,
)
from repro.baseline.dataflow import DataflowSchedule, ScheduledInstruction, dataflow_schedule

__all__ = [
    "ConventionalDelays",
    "conventional_superscalar_delay",
    "DataflowSchedule",
    "ScheduledInstruction",
    "dataflow_schedule",
]
