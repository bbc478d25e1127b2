"""Machine-readable run artifacts (the ``--json PATH`` flag).

The artifact is a stable, diff-friendly JSON document: results are
listed in job order, report text is summarized by its SHA-256 (so two
artifacts diff cleanly even when reports are kilobytes), and the only
non-deterministic fields are the wall times.  Schema::

    {
      "schema": "repro-runner/2",
      "version": "<repro.__version__>",
      "workers": <int>,                 # --jobs value
      "cache_dir": "<path>" | null,     # null when --no-cache
      "totals": {
        "jobs": <int>, "experiments": <int>, "ok": <int>,
        "failed": <int>, "cache_hits": <int>, "retried": <int>,
        "wall_time_s": <float>
      },
      "results": [
        {
          "experiment": "<key>", "title": "<display title>",
          "kwargs": {...},              # the job's arguments: {} for an
                                        # experiment, a shard's for verify
          "sweep_index": <int>, "sweep_count": <int>,
          "status": "ok" | "failed" | "timeout",
          "cache_hit": <bool>,
          "attempts": <int>,            # 0 for a cache hit
          "wall_time_s": <float>,
          "output_sha256": "<hex>" | null,
          "output_chars": <int> | null,
          "error": "<last traceback line>" | null,
          "stats": {"<counter>": <int>, ...} | null
        }, ...
      ]
    }

Schema history: ``repro-runner/2`` added the per-result ``stats``
object — aggregated telemetry counters (see ``docs/observability.md``)
collected while the job executed, ``null`` for cache hits and failed
jobs.  Everything ``repro-runner/1`` defined is unchanged.
"""

from __future__ import annotations

from typing import Any

from repro.runner.metrics import JobResult, summarize
from repro.util.artifact import check_envelope, counter_problems, envelope, iter_entries

ARTIFACT_SCHEMA = "repro-runner/2"


def build_artifact(
    results: list[JobResult],
    *,
    workers: int = 1,
    cache_dir: str | None = None,
) -> dict[str, Any]:
    """Assemble the artifact document for one runner invocation."""
    return envelope(
        ARTIFACT_SCHEMA,
        workers=workers,
        cache_dir=cache_dir,
        totals=summarize(results),
        results=[
            {
                "experiment": r.experiment,
                "title": r.title,
                "kwargs": r.kwargs,
                "sweep_index": r.index,
                "sweep_count": r.count,
                "status": r.status,
                "cache_hit": r.cache_hit,
                "attempts": r.attempts,
                "wall_time_s": round(r.wall_time_s, 6),
                "output_sha256": r.output_sha256,
                "output_chars": None if r.output is None else len(r.output),
                "error": r.error_summary or None,
                "stats": r.stats,
            }
            for r in results
        ],
    )


def validate_artifact(document: Any) -> list[str]:
    """Return schema problems with a ``repro-runner/2`` artifact.

    An empty list means the document is well formed.  Used by CI's
    runner smoke step, and handy for any downstream consumer that
    wants to fail fast on a malformed artifact.
    """
    problems = check_envelope(
        document, ARTIFACT_SCHEMA, ("version", "workers", "totals", "results")
    )
    if not isinstance(document, dict):
        return problems
    for label, entry in iter_entries(
        document.get("results"), "results", ("experiment", "kwargs", "status", "stats"), problems
    ):
        problems.extend(counter_problems(entry.get("stats"), f"{label}.stats"))
    return problems


def build_run_trace(results: list[JobResult]) -> dict[str, Any]:
    """Build a Chrome trace-event document from one run's job results.

    Each job becomes a complete ("X") event on the runner timeline:
    jobs are laid end to end using their wall times (timestamps are
    cumulative microseconds, not clock readings, so the document is
    deterministic modulo timing noise), and any collected telemetry
    counters ride in the event ``args`` for inspection in the viewer.
    """
    from repro.telemetry.chrome import build_chrome_trace
    from repro.telemetry.tracer import TraceEvent

    events = []
    cursor = 0
    for r in results:
        duration_us = max(1, int(round(r.wall_time_s * 1_000_000)))
        args: dict[str, Any] = {
            "kwargs": r.kwargs,
            "status": r.status,
            "cache_hit": r.cache_hit,
        }
        if r.stats:
            args["stats"] = r.stats
        events.append(
            TraceEvent(
                name=f"{r.experiment}[{r.index + 1}/{r.count}]",
                cat="job",
                ts=cursor,
                dur=duration_us,
                args=args,
            )
        )
        cursor += duration_us
    return build_chrome_trace(
        events,
        process_name="repro-runner",
        time_unit="ms",
        metadata={"jobs": len(results)},
    )
