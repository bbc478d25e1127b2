"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig3                 # one experiment's table(s)
    python -m repro all                  # everything
    python -m repro all --jobs 4         # fan out across worker processes
    python -m repro verify               # differential fuzz of all designs
                                         # (see `python -m repro verify -h`)
    python -m repro bench                # host-performance benchmarks
                                         # (see `python -m repro bench -h`)

Options::

    --list         registered experiments with their sweep points
    --jobs N       worker processes (default 1: run in-process)
    --json PATH    write a machine-readable run artifact (see docs)
    --trace PATH   write a Chrome trace-event JSON of the run (see docs)
    --cache-dir D  result cache location (default .repro_cache/)
    --no-cache     recompute everything; neither read nor write the cache
    --timeout S    per-job watchdog when --jobs > 1 (default 300)
    --retries N    extra attempts after a crash/timeout (default 1)

``--json`` and ``--trace`` turn on telemetry collection: each executed
job runs inside a tracing session and its aggregated counters appear in
the artifact (schema ``repro-runner/2``) and the trace event args.

Results are cached on disk keyed by (experiment, arguments, package
version), so a warm ``all`` replays instantly; a failing experiment is
reported on stderr and the rest still run (exit code 1).  Set
``REPRO_LOG=DEBUG`` (or ``INFO``) to see retry and cache decisions
that are normally silent (see :mod:`repro.util.log`).
"""

from __future__ import annotations

import argparse
import difflib
import sys
from time import perf_counter

from repro.runner.artifacts import build_artifact, build_run_trace
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.metrics import JobResult, format_summary
from repro.runner.pool import run_jobs
from repro.runner.registry import REGISTRY, build_jobs
from repro.util.artifact import write_json
from repro.util.log import get_logger, setup_cli_logging

log = get_logger("runner")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", add_help=False)
    parser.add_argument("name", nargs="?")
    parser.add_argument("-h", "--help", action="store_true", dest="help")
    parser.add_argument("--list", action="store_true", dest="list_experiments")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument("--trace", dest="trace_path", default=None)
    parser.add_argument("--cache-dir", dest="cache_dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument("--no-cache", action="store_true", dest="no_cache")
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--retries", type=int, default=1)
    return parser


def _print_listing() -> None:
    print(__doc__)
    print("Experiments:")
    for key, spec in REGISTRY.items():
        print(f"  {key:10s} {spec.title}")


def _print_detailed_listing() -> None:
    """The ``--list`` view: every experiment with its sweep points."""
    print("Registered experiments:")
    for key, spec in REGISTRY.items():
        points = spec.sweep_points()
        print(f"  {key:10s} {spec.title}")
        print(f"  {'':10s} module {spec.module}, {len(points)} sweep point(s):")
        for index, point in enumerate(points):
            rendered = (
                ", ".join(f"{k}={v!r}" for k, v in point.items()) or "(no arguments)"
            )
            print(f"  {'':10s}   [{index + 1}] {rendered}")


def _unknown_experiment_message(name: str) -> str:
    """Error text for a bad experiment key, with did-you-mean help."""
    close = difflib.get_close_matches(name, list(REGISTRY), n=3, cutoff=0.4)
    hint = f" (did you mean: {', '.join(close)}?)" if close else ""
    return f"unknown experiment {name!r}{hint}; try `python -m repro --list`"


def main(argv: list[str] | None = None) -> int:
    """Dispatch one experiment (or ``all``); returns a process exit code."""
    args = sys.argv[1:] if argv is None else argv
    setup_cli_logging()
    if args and args[0] == "verify":
        # the verify subcommand owns its own option surface
        from repro.verify.cli import main as verify_main

        return verify_main(args[1:])
    if args and args[0] == "bench":
        # so does the bench subcommand
        from repro.bench.cli import main as bench_main

        return bench_main(args[1:])
    try:
        opts = _build_parser().parse_args(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if opts.list_experiments:
        _print_detailed_listing()
        return 0
    if opts.help or opts.name in (None, "list"):
        _print_listing()
        return 0
    name = opts.name
    if name != "all" and name not in REGISTRY:
        print(_unknown_experiment_message(name), file=sys.stderr)
        return 2

    specs = list(REGISTRY.values()) if name == "all" else [REGISTRY[name]]
    cache = None if opts.no_cache else ResultCache(opts.cache_dir)
    jobs = build_jobs(specs, cache=cache)
    show_headers = name == "all"

    def emit(result: JobResult) -> None:
        if show_headers and result.index == 0:
            print(f"\n{'=' * 70}\n{result.title}\n{'=' * 70}")
        if result.ok:
            print(result.output)
        else:
            log.error(
                "experiment %r %s after %d attempt(s)",
                result.experiment,
                result.status,
                result.attempts,
            )
            if result.error:
                log.error("%s", result.error.rstrip())

    start = perf_counter()
    results = run_jobs(
        jobs,
        workers=opts.jobs,
        cache=cache,
        timeout=opts.timeout,
        retries=opts.retries,
        on_result=emit,
        collect_stats=bool(opts.json_path or opts.trace_path),
    )
    print(
        format_summary(results, wall_time_s=perf_counter() - start),
        file=sys.stderr,
    )
    if opts.json_path:
        cache_dir = None if cache is None else str(cache.root)
        write_json(opts.json_path, build_artifact(results, workers=opts.jobs, cache_dir=cache_dir))
    if opts.trace_path:
        write_json(opts.trace_path, build_run_trace(results))
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
