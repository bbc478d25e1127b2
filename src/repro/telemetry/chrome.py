"""Chrome trace-event export (``chrome://tracing`` / Perfetto format).

Two producers share this module:

* :class:`~repro.telemetry.tracer.EventTracer` timelines — one complete
  ("X") event per committed instruction, timestamped in simulated
  cycles; and
* the runner's ``--trace PATH`` flag — one complete event per job,
  timestamped in (cumulative) wall-clock microseconds, with the job's
  aggregated telemetry counters attached as event ``args``.

The document follows the Trace Event Format's JSON object form:
``{"traceEvents": [...], "displayTimeUnit": ..., "otherData": {...}}``.
``otherData`` is the shared artifact envelope (see
:mod:`repro.util.artifact`) with schema ``repro-trace/1``, so artifacts
are validatable without sniffing event contents.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.telemetry.tracer import TraceEvent
from repro.util.artifact import NOT_AN_OBJECT, check_envelope, envelope, iter_entries

TRACE_SCHEMA = "repro-trace/1"


def chrome_event(event: TraceEvent, *, pid: int = 0) -> dict[str, Any]:
    """One :class:`TraceEvent` as a Chrome complete event dict."""
    return {
        "name": event.name,
        "cat": event.cat,
        "ph": "X",
        "ts": event.ts,
        "dur": max(0, event.dur),
        "pid": pid,
        "tid": event.tid,
        "args": dict(event.args),
    }


def build_chrome_trace(
    events: Iterable[TraceEvent],
    *,
    process_name: str = "repro",
    time_unit: str = "ms",
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the full trace document from *events*."""
    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    trace_events.extend(chrome_event(e) for e in events)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": time_unit,
        "otherData": envelope(TRACE_SCHEMA, **(metadata or {})),
    }


def validate_chrome_trace(document: Any) -> list[str]:
    """Schema check for a trace document; returns problem descriptions.

    An empty list means the document is a well-formed ``repro-trace/1``
    artifact.  Used by tests and CI's runner smoke step.
    """
    if not isinstance(document, dict):
        return [NOT_AN_OBJECT]
    problems = [
        f"otherData: {problem}"
        for problem in check_envelope(document.get("otherData"), TRACE_SCHEMA)
    ]
    for label, event in iter_entries(
        document.get("traceEvents"), "traceEvents", ("name", "ph", "pid", "tid"), problems
    ):
        if event.get("ph") == "X" and "ts" not in event:
            problems.append(f"{label} complete event missing 'ts'")
    return problems
