"""Parallel, cached experiment runner (see DESIGN.md §4 and README).

The runner turns the experiment suite into a list of independent jobs —
one per experiment, its ``report()`` called with no arguments — and
executes them with:

* a :class:`~concurrent.futures.ProcessPoolExecutor` fan-out
  (``--jobs N`` on the CLI),
* a content-addressed on-disk result cache under ``.repro_cache/``
  keyed by (experiment name, arguments, package version, source digest),
* a per-job timeout watchdog with one retry and per-experiment failure
  isolation (one crashing experiment no longer aborts ``all``), and
* structured observability: per-job wall-time/cache-hit metrics and a
  JSON artifact (``--json PATH``) that CI can diff across runs.

:mod:`repro.runner.registry` lists the experiments and builds their
jobs without importing them.
"""

from repro.runner.artifacts import ARTIFACT_SCHEMA, build_artifact
from repro.runner.cache import CacheEntry, ResultCache
from repro.runner.metrics import JobResult, format_summary, summarize
from repro.runner.pool import run_jobs
from repro.runner.registry import REGISTRY, ExperimentSpec, JobSpec, build_jobs

__all__ = [
    "ARTIFACT_SCHEMA",
    "build_artifact",
    "CacheEntry",
    "ResultCache",
    "JobResult",
    "format_summary",
    "summarize",
    "run_jobs",
    "REGISTRY",
    "ExperimentSpec",
    "JobSpec",
    "build_jobs",
]
