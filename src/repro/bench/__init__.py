"""Host-performance observability: benchmarks, baselines, profiles.

The simulator's telemetry (:mod:`repro.telemetry`) measures *simulated*
cycles; this package measures the *host* — how fast the simulation
itself runs — so optimisation PRs have a target and regressions have a
tripwire.  See ``docs/benchmarking.md`` for the workflow.

* :mod:`repro.bench.registry` — the hot-path benchmark catalogue;
* :mod:`repro.bench.timing` — the stable timing protocol;
* :mod:`repro.bench.run` — measurement plus the telemetry stats join;
* :mod:`repro.bench.artifact` — the ``repro-bench/1`` JSON artifact;
* :mod:`repro.bench.compare` — baseline diffing and the regression gate;
* :mod:`repro.bench.profile` — cProfile hooks with collapsed stacks;
* :mod:`repro.bench.cli` — ``python -m repro bench``.
"""

from repro.bench.artifact import BENCH_SCHEMA, build_bench_artifact, validate_bench_artifact
from repro.bench.compare import (
    Delta,
    compare_artifacts,
    format_compare_table,
    regressions,
)
from repro.bench.registry import REGISTRY, Benchmark, register, select
from repro.bench.run import run_benchmark, run_benchmarks
from repro.bench.timing import BenchRecord, Timing, host_fingerprint, measure

__all__ = [
    "BENCH_SCHEMA",
    "BenchRecord",
    "Benchmark",
    "Delta",
    "REGISTRY",
    "Timing",
    "build_bench_artifact",
    "compare_artifacts",
    "format_compare_table",
    "host_fingerprint",
    "measure",
    "register",
    "regressions",
    "run_benchmark",
    "run_benchmarks",
    "select",
    "validate_bench_artifact",
]
