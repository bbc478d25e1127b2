"""The tracer protocol and its three implementations.

A tracer is the observer the engines report to: every processor model
accepts one and calls a small set of hooks from its per-cycle phases.
The default :class:`NullTracer` makes the hooks free — engines gate
every instrumentation block on ``tracer.enabled`` (a plain attribute),
so an untraced run executes exactly the code it executed before the
telemetry subsystem existed and produces byte-identical reports.

Implementations:

* :class:`NullTracer` — ``enabled = False``; every hook is a no-op and
  :meth:`~NullTracer.snapshot` is empty.  The default.
* :class:`CountingTracer` — aggregates named integer counters
  (``count``) and ignores timeline events.  The snapshot is a plain
  ``dict[str, int]`` with deterministically sorted keys, suitable for
  golden-value pinning and cross-commit diffing.
* :class:`EventTracer` — a :class:`CountingTracer` that additionally
  records :class:`TraceEvent` timeline entries (one per committed
  instruction, emitted by the engines), exportable to the Chrome
  trace-event format via :mod:`repro.telemetry.chrome`.

Counter names form a dotted hierarchy (``fetch.*``, ``issue.*``,
``forward.*``, ``mem.*``, ``commit.*``); the full vocabulary is
documented in ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Tracer(Protocol):
    """What the engines need from a telemetry sink."""

    #: engines skip their instrumentation blocks entirely when False
    enabled: bool

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the named counter."""
        ...

    def event(
        self, name: str, *, cat: str, ts: int, dur: int = 0, **args: Any
    ) -> None:
        """Record a timeline event (cycle timestamps, engine-defined args)."""
        ...

    def snapshot(self) -> dict[str, int]:
        """The aggregated counters, sorted by name."""
        ...


class NullTracer:
    """The zero-cost default: records nothing."""

    enabled = False

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def event(
        self, name: str, *, cat: str, ts: int, dur: int = 0, **args: Any
    ) -> None:
        pass

    def snapshot(self) -> dict[str, int]:
        return {}


#: shared instance — the tracer resolution default (stateless, so safe)
NULL_TRACER = NullTracer()


class CountingTracer:
    """Aggregates named counters; timeline events are dropped."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def event(
        self, name: str, *, cat: str, ts: int, dur: int = 0, **args: Any
    ) -> None:
        pass

    def snapshot(self) -> dict[str, int]:
        return {name: self.counters[name] for name in sorted(self.counters)}


@dataclass(frozen=True)
class TraceEvent:
    """One timeline entry (maps 1:1 onto a Chrome complete event)."""

    name: str
    cat: str
    #: start timestamp, in simulated cycles
    ts: int
    #: duration, in simulated cycles
    dur: int = 0
    #: lane the event renders on (e.g. a station or worker index)
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)


class EventTracer(CountingTracer):
    """Counts like :class:`CountingTracer` and keeps the event timeline."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[TraceEvent] = []

    def event(
        self, name: str, *, cat: str, ts: int, dur: int = 0, **args: Any
    ) -> None:
        tid = int(args.pop("tid", 0))
        self.events.append(
            TraceEvent(name=name, cat=cat, ts=ts, dur=dur, tid=tid, args=args)
        )
