"""Job execution: sequential or process-pool fan-out with a watchdog.

Jobs are pure functions of their :class:`~repro.runner.registry.JobSpec`
(module path + function name + kwargs), so they pickle cheaply and run
identically inline or in a worker process.  The parent owns the cache:
workers never touch disk, results are stored once per miss on the way
back.  Each job gets ``1 + retries`` attempts; a timeout or crash on the
final attempt marks that job failed and the run continues — one broken
experiment no longer aborts ``all``.
"""

from __future__ import annotations

import importlib
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Callable

from repro.runner.cache import ResultCache
from repro.runner.metrics import STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, JobResult
from repro.runner.registry import JobSpec
from repro.util.log import get_logger

log = get_logger("runner.pool")


def _execute(
    module: str, func: str, kwargs: dict, collect: bool = False
) -> tuple[str, str, float, dict[str, int] | None]:
    """Run one job; errors come back as data so the parent can retry.

    Runs in worker processes (and inline when ``workers == 1``), so it
    must stay a picklable top-level function.  With ``collect`` a
    telemetry session wraps the call: every processor the experiment
    builds reports to one :class:`~repro.telemetry.tracer.CountingTracer`
    whose counters ride back with the result (a plain dict, so it
    pickles across the pool boundary).
    """
    start = perf_counter()
    try:
        fn = getattr(importlib.import_module(module), func)
        if collect:
            from repro.telemetry.session import collecting

            with collecting() as tracer:
                output = fn(**kwargs)
            stats = tracer.snapshot()
        else:
            output = fn(**kwargs)
            stats = None
        if not isinstance(output, str):
            raise TypeError(
                f"{module}.{func} returned {type(output).__name__}, expected str"
            )
        return (STATUS_OK, output, perf_counter() - start, stats)
    except Exception:
        return (STATUS_FAILED, traceback.format_exc(), perf_counter() - start, None)


def _hit_result(job: JobSpec, entry, elapsed: float) -> JobResult:
    return JobResult(
        experiment=job.experiment,
        title=job.title,
        kwargs=dict(job.kwargs),
        index=job.index,
        count=job.count,
        status=STATUS_OK,
        cache_hit=True,
        attempts=0,
        wall_time_s=elapsed,
        output=entry.output,
        compute_time_s=entry.compute_time_s,
    )


def _miss_result(
    job: JobSpec,
    status: str,
    payload: str,
    elapsed: float,
    attempts: int,
    stats: dict[str, int] | None = None,
) -> JobResult:
    ok = status == STATUS_OK
    return JobResult(
        experiment=job.experiment,
        title=job.title,
        kwargs=dict(job.kwargs),
        index=job.index,
        count=job.count,
        status=status,
        cache_hit=False,
        attempts=attempts,
        wall_time_s=elapsed,
        output=payload if ok else None,
        error=None if ok else payload,
        compute_time_s=elapsed if ok else 0.0,
        stats=stats if ok else None,
    )


def _run_inline(job: JobSpec, attempts: int, collect: bool = False) -> JobResult:
    """Execute with retry in this process (the ``--jobs 1`` path)."""
    for attempt in range(1, attempts + 1):
        status, payload, elapsed, stats = _execute(
            job.module, job.func, dict(job.kwargs), collect
        )
        if status == STATUS_OK or attempt == attempts:
            return _miss_result(job, status, payload, elapsed, attempt, stats)
        log.debug(
            "job %s[%d/%d] %s on attempt %d/%d; retrying inline",
            job.experiment, job.index + 1, job.count, status, attempt, attempts,
        )
    raise AssertionError("unreachable")  # pragma: no cover


def run_jobs(
    jobs: list[JobSpec],
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
    on_result: Callable[[JobResult], None] | None = None,
    collect_stats: bool = False,
) -> list[JobResult]:
    """Run every job; emit results in job order via ``on_result``.

    Cache hits are resolved in the parent before any worker spawns, so a
    fully warm run never pays pool start-up.  ``timeout`` bounds each
    wait on a parallel job (the inline path has no watchdog — there is
    no second process to keep the CLI responsive).  Failed jobs are
    recorded, not raised.  ``collect_stats`` turns on telemetry
    collection for jobs that actually execute; cache hits carry no stats
    (the cache stores report text only, so its on-disk format — and
    therefore ``--jobs`` behaviour — is unchanged by collection).
    """
    attempts_allowed = 1 + max(0, retries)
    hits: dict[int, object] = {}
    for idx, job in enumerate(jobs):
        if cache is not None:
            start = perf_counter()
            entry = cache.get(job.experiment, job.kwargs)
            if entry is not None:
                hits[idx] = (entry, perf_counter() - start)

    results: list[JobResult] = []

    def emit(result: JobResult) -> None:
        if cache is not None and result.ok and not result.cache_hit:
            cache.put(
                result.experiment, result.kwargs, result.output, result.wall_time_s
            )
        results.append(result)
        if on_result is not None:
            on_result(result)

    misses = [idx for idx in range(len(jobs)) if idx not in hits]
    if workers <= 1 or len(misses) <= 1:
        for idx, job in enumerate(jobs):
            if idx in hits:
                entry, elapsed = hits[idx]
                emit(_hit_result(job, entry, elapsed))
            else:
                emit(_run_inline(job, attempts_allowed, collect_stats))
        return results

    pool = ProcessPoolExecutor(max_workers=min(workers, len(misses)))
    futures: dict[int, Future] = {}
    attempts: dict[int, int] = {}

    def submit(idx: int) -> None:
        job = jobs[idx]
        attempts[idx] = attempts.get(idx, 0) + 1
        futures[idx] = pool.submit(
            _execute, job.module, job.func, dict(job.kwargs), collect_stats
        )

    try:
        for idx in misses:
            submit(idx)
        for idx, job in enumerate(jobs):
            if idx in hits:
                entry, elapsed = hits[idx]
                emit(_hit_result(job, entry, elapsed))
                continue
            while True:
                stats = None
                try:
                    status, payload, elapsed, stats = futures[idx].result(
                        timeout=timeout
                    )
                except FutureTimeout:
                    futures[idx].cancel()
                    status = STATUS_TIMEOUT
                    payload = (
                        f"timed out after {timeout}s "
                        f"(attempt {attempts[idx]}/{attempts_allowed})"
                    )
                    elapsed = float(timeout or 0.0)
                    log.warning(
                        "job %s[%d/%d] timed out after %ss (attempt %d/%d)",
                        job.experiment, job.index + 1, job.count,
                        timeout, attempts[idx], attempts_allowed,
                    )
                except BrokenProcessPool:
                    # a worker died hard (e.g. OOM-kill); the whole pool
                    # is poisoned, so rebuild it for the remaining jobs
                    log.warning(
                        "worker pool broke during %s[%d/%d]; rebuilding "
                        "for the remaining jobs",
                        job.experiment, job.index + 1, job.count,
                    )
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=min(workers, len(misses)))
                    for other in misses:
                        if other > idx and not futures[other].done():
                            attempts[other] -= 1  # not this job's fault
                            submit(other)
                    status = STATUS_FAILED
                    payload = (
                        "worker process died before returning "
                        f"(attempt {attempts[idx]}/{attempts_allowed})"
                    )
                    elapsed = 0.0
                if status == STATUS_OK or attempts[idx] >= attempts_allowed:
                    emit(
                        _miss_result(
                            job, status, payload, elapsed, attempts[idx], stats
                        )
                    )
                    break
                log.debug(
                    "job %s[%d/%d] %s; resubmitting (attempt %d/%d)",
                    job.experiment, job.index + 1, job.count,
                    status, attempts[idx] + 1, attempts_allowed,
                )
                submit(idx)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results
