"""Executing registered benchmarks: timed repeats plus the stats pass.

:func:`run_benchmark` is the single place the protocol is applied:
setup via :meth:`~repro.bench.registry.Benchmark.make` (untimed), the
warmup/repeat measurement from :mod:`repro.bench.timing`, then one
extra **untimed** pass inside a telemetry session
(:func:`repro.telemetry.collecting`) so engine benchmarks report their
simulated-cycle counters without tracing overhead ever touching the
timed path.  The resulting :class:`~repro.bench.timing.BenchRecord`
carries wall-clock samples, counters, and the joined rates.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.registry import Benchmark
from repro.bench.timing import BenchRecord, measure
from repro.telemetry import CountingTracer, collecting


def run_benchmark(
    benchmark: Benchmark,
    *,
    repeats: int = 5,
    warmup: int = 1,
) -> BenchRecord:
    """Measure one benchmark under the protocol; see module docs."""
    thunk = benchmark.make()
    timing = measure(thunk, repeats=repeats, warmup=warmup, collect=benchmark.gc)
    tracer = CountingTracer()
    with collecting(tracer):
        thunk()
    return BenchRecord(
        name=benchmark.name,
        group=benchmark.group,
        title=benchmark.title,
        metadata={**benchmark.metadata, "gc": benchmark.gc},
        timing=timing,
        stats=tracer.snapshot(),
    )


def run_benchmarks(
    benchmarks: list[Benchmark],
    *,
    repeats: int = 5,
    warmup: int = 1,
    on_record: Callable[[BenchRecord], None] | None = None,
) -> list[BenchRecord]:
    """Run *benchmarks* in order, emitting each record as it lands."""
    records: list[BenchRecord] = []
    for benchmark in benchmarks:
        record = run_benchmark(benchmark, repeats=repeats, warmup=warmup)
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records
