"""Spans for the benchmark's traced run, recorded from outside the program.

Nothing under ``src/`` is edited: :class:`Tracing` replaces public entry
points of :mod:`repro` with wrappers at run time and puts the originals
back on exit.  Every wrapped call records one span (name, start, end,
parent) in flat in-memory arrays; :meth:`SpanRecorder.aggregate` turns
them into per-layer rows once the traced passes are over.

A span's *self* time is its duration minus the durations of its direct
child spans.  Every span belongs to exactly one layer, so the self times
of all layer spans plus the time spent outside them (the benchmark's
own loop and checks, reported as the remainder) add up to the traced
wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

#: span name of the benchmark's own per-operation spans; their self time
#: is the benchmark's, so it lands in the remainder, not in a layer
OP = "op"


class SpanRecorder:
    """Spans kept in memory as parallel arrays; parents precede children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        #: span index -> operation label, for the benchmark's op spans
        self.labels: dict[int, str] = {}
        #: counts taken at span boundaries (e.g. instructions delivered)
        self.counts: dict[str, int] = defaultdict(int)
        self._open = -1

    def begin(self, name: str, label: str | None = None) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._open)
        self.end.append(0.0)
        if label is not None:
            self.labels[index] = label
        self._open = index
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open = self.parent[index]

    def labels_by_span(self) -> list[str | None]:
        """Each span's op label: that of its nearest enclosing op span."""
        label: list[str | None] = [None] * len(self.start)
        for index, parent in enumerate(self.parent):
            own = self.labels.get(index)
            label[index] = own if own is not None else (label[parent] if parent >= 0 else None)
        return label

    def aggregate(self) -> dict[tuple[str | None, str], list[float]]:
        """``(op label, span name) -> [calls, inclusive s, self s]``.

        Per-operation rows, such as one simulator run's engine self
        time, fall out of the same table as the totals.
        """
        count = len(self.start)
        duration = [end - start for start, end in zip(self.start, self.end)]
        self_time = list(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_time[parent] -= duration[index]
        label = self.labels_by_span()
        table: dict[tuple[str | None, str], list[float]] = {}
        for index in range(count):
            key = (label[index], self.names[self.name_id[index]])
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration[index]
            row[2] += self_time[index]
        return table

    def spans_named(self, name: str) -> list[int]:
        """Indices of every span called *name*, in start order."""
        ident = self._ids.get(name)
        if ident is None:
            return []
        return [i for i, value in enumerate(self.name_id) if value == ident]


def traced(recorder: SpanRecorder, fn, name: str, count: str | None = None):
    """*fn* wrapped in a span; *count* adds ``len(result)`` to that counter."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(index)
        if count is not None:
            recorder.counts[count] += len(result)
        return result

    return wrapper


class Delegate:
    """Forwards every call to *inner* inside a span named *name*.

    Passed to ``Processor.run`` through ``memory=`` and ``predictor=``,
    so the engine's calls into the memory system and the branch
    predictor are timed without touching either class.  Calls to the
    methods in *counted* also bump ``<counter>``.
    """

    def __init__(self, inner, recorder: SpanRecorder, name: str, counted=(), counter=""):
        self._inner = inner
        self._recorder = recorder
        self._name = name
        self._counted = frozenset(counted)
        self._counter = counter
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, attr: str):
        wrapped = self._wrapped.get(attr)
        if wrapped is None:
            value = getattr(self._inner, attr)
            if not callable(value):
                return value
            wrapped = traced(self._recorder, value, self._name)
            if attr in self._counted:
                wrapped = _counting(self._recorder, wrapped, self._counter)
            self._wrapped[attr] = wrapped
        return wrapped


def _counting(recorder: SpanRecorder, fn, counter: str):
    def wrapper(*args, **kwargs):
        recorder.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


class CycleClock:
    """A ``cycle_hook`` whose spans timestamp every simulated cycle."""

    name = "telemetry.cycle_hook"

    def __init__(self, recorder: SpanRecorder):
        self._recorder = recorder

    def __call__(self, engine) -> None:
        self._recorder.finish(self._recorder.begin(self.name))


#: methods patched on their class: (module, class, method, span name, counter)
METHODS = (
    ("repro.api", "Processor", "run", "ultrascalar", None),
    ("repro.ultrascalar.ring", "RingProcessor", "run", "ultrascalar", None),
    ("repro.ultrascalar.us2", "BatchProcessor", "run", "ultrascalar", None),
    ("repro.ultrascalar.vector_engine", "VectorRingEngine", "run", "ultrascalar.vector_run", None),
    ("repro.frontend.fetch", "FetchUnit", "fetch_cycle", "frontend.fetch_cycle",
     "frontend.delivered"),
    ("repro.circuits.netlist", "Netlist", "simulate", "circuits.netlist_simulate", None),
    ("repro.circuits.mux_ring", "MuxRing", "__init__", "circuits.build", None),
    ("repro.circuits.grid", "GridNetwork", "__init__", "circuits.build", None),
    ("repro.circuits.grid", "TreeGridNetwork", "__init__", "circuits.build", None),
    ("repro.verify.invariants", "InvariantChecker", "__call__", "verify.invariants", None),
)

#: module functions, patched in every loaded ``repro`` module that
#: imported them by name: (module, function, span name)
FUNCTIONS = (
    ("repro.isa.interpreter", "run_program", "isa.run_program"),
    ("repro.verify.oracle", "run_oracle", "verify.run_oracle"),
    ("repro.verify.fuzz", "generate_case", "verify.generate_case"),
    ("repro.verify.fuzz", "run_case", "verify.run_case"),
    ("repro.baseline.dataflow", "dataflow_schedule", "baseline.dataflow_schedule"),
    ("repro.circuits.cspp", "build_copy_cspp", "circuits.build"),
    ("repro.runner.pool", "run_jobs", "runner"),
)


class Tracing:
    """Context manager: install every wrapper, restore the originals on exit.

    *experiments* maps registry keys to experiment modules whose
    ``report`` function becomes an ``experiments.<key>`` span.  Targets
    that no longer exist (a module deleted by a later change) are
    skipped and listed in :attr:`missing`.
    """

    def __init__(self, recorder: SpanRecorder, experiments: dict[str, str] | None = None):
        self.recorder = recorder
        self.experiments = experiments or {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _module(name: str):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    def __enter__(self) -> "Tracing":
        for module_name, class_name, method, span, counter in METHODS:
            module = self._module(module_name)
            cls = getattr(module, class_name, None)
            if cls is None or method not in cls.__dict__:
                self.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            self._set(cls, method, traced(self.recorder, cls.__dict__[method], span, counter))
        targets = list(FUNCTIONS)
        targets += [
            (module, "report", f"experiments.{key}") for key, module in self.experiments.items()
        ]
        for module_name, function, span in targets:
            module = self._module(module_name)
            original = getattr(module, function, None)
            if original is None:
                self.missing.append(f"{module_name}.{function}")
                continue
            wrapper = traced(self.recorder, original, span)
            for name, loaded in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
