"""Per-job metrics and run summaries for the experiment runner."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

#: job terminal states
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


@dataclass
class JobResult:
    """What one job produced, plus how.

    ``kwargs``, ``index`` and ``count`` are copied from the job's
    :class:`~repro.runner.registry.JobSpec`: ``{}``, 0 and 1 for an
    experiment, a fuzz shard's arguments and position for verify.
    """

    experiment: str
    title: str
    kwargs: dict[str, Any]
    index: int
    count: int
    status: str
    cache_hit: bool
    attempts: int
    wall_time_s: float
    output: str | None = None
    error: str | None = None
    #: compute time recorded when the entry was first produced (equals
    #: ``wall_time_s`` on a miss; the historical cost on a hit)
    compute_time_s: float = field(default=0.0)
    #: aggregated telemetry counters collected while the job ran (None
    #: when collection was off or the result came from the cache)
    stats: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        """True when the job produced a report."""
        return self.status == STATUS_OK

    @property
    def output_sha256(self) -> str | None:
        """Digest of the report text, for cross-run diffing."""
        if self.output is None:
            return None
        return hashlib.sha256(self.output.encode("utf-8")).hexdigest()

    @property
    def error_summary(self) -> str:
        """The last line of the captured traceback (the exception itself)."""
        if not self.error:
            return ""
        lines = [line for line in self.error.strip().splitlines() if line.strip()]
        return lines[-1] if lines else ""


def summarize(results: list[JobResult]) -> dict[str, Any]:
    """Aggregate counters over a run's job results."""
    return {
        "jobs": len(results),
        "experiments": len({r.experiment for r in results}),
        "ok": sum(1 for r in results if r.ok),
        "failed": sum(1 for r in results if not r.ok),
        "cache_hits": sum(1 for r in results if r.cache_hit),
        "retried": sum(1 for r in results if r.attempts > 1),
        "wall_time_s": round(sum(r.wall_time_s for r in results), 6),
    }


def format_summary(
    results: list[JobResult], *, wall_time_s: float | None = None
) -> str:
    """One human-readable line: job counts, hits/misses, failures, time.

    ``wall_time_s`` is the caller's end-to-end clock for the whole run;
    with parallel workers it is smaller than the summed per-job time,
    and the gap between the two is where ``python -m repro all`` spent
    its time (pool fan-out vs. cache replay).
    """
    totals = summarize(results)
    misses = totals["jobs"] - totals["cache_hits"]
    parts = [
        f"{totals['jobs']} job(s) across {totals['experiments']} experiment(s)",
        f"{totals['cache_hits']} cache hit(s), {misses} miss(es)",
        f"{totals['failed']} failure(s)",
        f"{totals['wall_time_s']:.2f}s job time",
    ]
    if totals["retried"]:
        parts.insert(2, f"{totals['retried']} retried")
    if wall_time_s is not None:
        parts.append(f"{wall_time_s:.2f}s wall-clock")
    return "; ".join(parts)
