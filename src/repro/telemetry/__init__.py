"""Cycle-level telemetry for the processor engines.

The ring engine (:mod:`repro.ultrascalar`) and the memory systems
report what the paper argues about — fetch stalls and refill
behaviour, issue-slot usage and ALU-grant contention, CSPP forwarding
hop distances, memory traffic, window occupancy — to a
:class:`~repro.telemetry.tracer.Tracer`.  The default
:class:`~repro.telemetry.tracer.NullTracer` is free; pass a
:class:`~repro.telemetry.tracer.CountingTracer` to aggregate named
counters into ``ProcessorResult.stats``, or an
:class:`~repro.telemetry.tracer.EventTracer` to additionally capture a
per-instruction timeline exportable to the Chrome trace-event format.

See ``docs/observability.md`` for the counter vocabulary and the
artifact schemas.
"""

from repro.telemetry.chrome import (
    TRACE_SCHEMA,
    build_chrome_trace,
    chrome_event,
    validate_chrome_trace,
)
from repro.telemetry.session import collecting, current_tracer, resolve_tracer
from repro.telemetry.tracer import (
    NULL_TRACER,
    CountingTracer,
    EventTracer,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "TRACE_SCHEMA",
    "build_chrome_trace",
    "chrome_event",
    "validate_chrome_trace",
    "collecting",
    "current_tracer",
    "resolve_tracer",
    "NULL_TRACER",
    "CountingTracer",
    "EventTracer",
    "NullTracer",
    "TraceEvent",
    "Tracer",
]
