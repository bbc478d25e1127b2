"""The Ultrascalar processors: the paper's primary contribution.

The paper's three designs share one scheduling policy and differ only
in how stations refill, so one cycle-accurate engine models all three:

* :class:`repro.ultrascalar.ring.RingProcessor` — a wrap-around ring of
  execution stations connected by per-register CSPP circuits.  With
  ``cluster_size=1`` it is the Ultrascalar I (per-station refill); with
  ``1 < cluster_size < n`` it is the **hybrid**, whose clusters refill
  as a unit like "super execution stations"; with one cluster of ``n``
  stations it is the Ultrascalar II, whose batch never wraps and
  refills only when the whole batch has finished ("stations idle
  waiting for everyone to finish").

:class:`repro.api.Processor` is the one place that builds the engine
for each of the three configurations the paper compares.
"""

from repro.ultrascalar.memsys import CachedMemory, IdealMemory, MemorySystem
from repro.ultrascalar.processor import (
    ProcessorConfig,
    ProcessorResult,
    TimingRecord,
)
from repro.ultrascalar.ring import RingProcessor
from repro.ultrascalar.station import Station, StationState
from repro.ultrascalar.trace_view import render_pipeline

__all__ = [
    "CachedMemory",
    "IdealMemory",
    "MemorySystem",
    "ProcessorConfig",
    "ProcessorResult",
    "TimingRecord",
    "RingProcessor",
    "Station",
    "StationState",
    "render_pipeline",
]
