"""The ``python -m repro verify`` subcommand.

Fans seeded fuzz shards out across the runner pool, each shard
generating random programs and differentially testing every backend
against the sequential oracle (see :mod:`repro.verify.fuzz`).

Usage::

    python -m repro verify                       # default smoke sweep
    python -m repro verify --seeds 0:50 --budget 500
    python -m repro verify --designs us1,us2 --sizes 4,8,16
    python -m repro verify --repro failures/seed00000003.json

Options::

    --seeds A:B     seed range (half-open), or a count N meaning 0:N
    --budget N      generated body instructions per shard (default 200;
                    0 runs only the corpus)
    --designs CSV   backends to test (default: all of them)
    --sizes CSV     window sizes; the wrap-free size is always added
    --no-minimize   skip shrinking failing programs
    --no-invariants skip the per-cycle engine invariant checks
    --jobs N        worker processes, >= 1 (default 1: run in-process)
    --json PATH     write a repro-verify/1 artifact
    --failures-dir D  where reproducers land
                      (default .repro_cache/repro_failures/)
    --repro PATH    replay one recorded reproducer instead of fuzzing
    --timeout S     per-shard watchdog when --jobs > 1, > 0 (default 300)

Exit status: 0 all shards clean, 1 divergence or shard error, 2 usage.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.runner.metrics import STATUS_OK, JobResult
from repro.runner.pool import run_jobs
from repro.runner.registry import JobSpec
from repro.util.argtypes import int_at_least, positive_seconds
from repro.util.artifact import write_json
from repro.verify.artifact import build_verify_artifact, validate_verify_artifact
from repro.verify.diff import DESIGNS
from repro.verify.fuzz import load_reproducer, parse_shard_report, run_case

DEFAULT_FAILURES_DIR = ".repro_cache/repro_failures"


def _parse_seeds(text: str) -> range:
    try:
        if ":" in text:
            start, stop = text.split(":", 1)
            seeds = range(int(start), int(stop))
        else:
            seeds = range(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B or a count, got {text!r}") from None
    if len(seeds) == 0:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _parse_designs(text: str) -> tuple[str, ...]:
    designs = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = sorted(set(designs) - set(DESIGNS))
    if unknown or not designs:
        raise argparse.ArgumentTypeError(
            f"unknown design(s) {unknown or text!r}; expected from {DESIGNS}"
        )
    return designs


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected CSV of ints, got {text!r}") from None
    if not sizes or any(size < 1 for size in sizes):
        raise argparse.ArgumentTypeError(f"window sizes must be >= 1, got {text!r}")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro verify", add_help=True)
    parser.add_argument("--seeds", type=_parse_seeds, default=range(8))
    parser.add_argument("--budget", type=int_at_least(0), default=200)
    parser.add_argument("--designs", type=_parse_designs, default=DESIGNS)
    parser.add_argument("--sizes", type=_parse_sizes, default=(4, 16))
    parser.add_argument("--no-minimize", action="store_true", dest="no_minimize")
    parser.add_argument("--no-invariants", action="store_true", dest="no_invariants")
    parser.add_argument("--jobs", type=int_at_least(1), default=1)
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument("--failures-dir", dest="failures_dir", default=DEFAULT_FAILURES_DIR)
    parser.add_argument("--repro", dest="repro_path", default=None)
    parser.add_argument("--timeout", type=positive_seconds, default=300.0)
    return parser


def _replay(
    path: str,
    designs: tuple[str, ...],
    sizes: tuple[int, ...],
    check_invariants: bool,
) -> int:
    """The ``--repro`` path: re-run one recorded failing case."""
    try:
        case = load_reproducer(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load reproducer: {exc}", file=sys.stderr)
        return 2
    print(f"replaying {path} (seed {case.seed}, {len(case.program)} instructions)")
    failure = run_case(case, sizes=sizes, designs=designs, check_invariants=check_invariants)
    if failure is None:
        print("reproducer no longer fails")
        return 0
    print(f"still fails at window={failure.window}:")
    for item in failure.describe():
        print(f"  {item['design']}.{item['field']}: {item['detail']}")
    return 1


def _shard_entry(result: JobResult) -> dict:
    """One artifact ``shards[]`` object from a runner job result."""
    if result.status == STATUS_OK:
        outcome = parse_shard_report(result.output)
        return {
            "seed": outcome.seed,
            "status": "ok" if outcome.ok else "failed",
            "cases": outcome.cases,
            "instructions": outcome.instructions,
            "failures": outcome.failures,
            "error": None,
        }
    return {
        "seed": result.kwargs.get("seed"),
        "status": result.status if result.status == "timeout" else "error",
        "cases": 0,
        "instructions": 0,
        "failures": [],
        "error": result.error_summary,
    }


def main(argv: list[str] | None = None) -> int:
    """Run the verify subcommand; returns a process exit code."""
    args = sys.argv[1:] if argv is None else argv
    try:
        opts = _build_parser().parse_args(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    designs = tuple(opts.designs)
    sizes = tuple(opts.sizes)
    check_invariants = not opts.no_invariants
    if opts.repro_path is not None:
        return _replay(opts.repro_path, designs, sizes, check_invariants)

    seeds = list(opts.seeds)
    jobs = [
        JobSpec(
            experiment="verify",
            title="differential fuzz",
            module="repro.verify.fuzz",
            func="shard_report",
            kwargs={
                "seed": seed,
                "budget": opts.budget,
                "sizes": sizes,
                "designs": designs,
                "minimize": not opts.no_minimize,
                "check_invariants": check_invariants,
                "failures_dir": opts.failures_dir,
            },
            index=index,
            count=len(seeds),
        )
        for index, seed in enumerate(seeds)
    ]

    def emit(result: JobResult) -> None:
        entry = _shard_entry(result)
        line = (
            f"shard seed={entry['seed']} {entry['status']}: "
            f"{entry['cases']} case(s), {entry['instructions']} instruction(s)"
        )
        print(line)
        for failure in entry["failures"]:
            for item in failure["divergences"]:
                print(
                    f"  {item['design']}.{item['field']}: {item['detail']}",
                    file=sys.stderr,
                )
            if "reproducer" in failure:
                print(f"  reproducer: {failure['reproducer']}", file=sys.stderr)
        if entry["error"]:
            print(f"  {entry['error']}", file=sys.stderr)

    start = perf_counter()
    results = run_jobs(
        jobs,
        workers=opts.jobs,
        cache=None,  # fuzzing must re-execute; a result cache would hide bugs
        timeout=opts.timeout,
        retries=0,
        on_result=emit,
    )
    elapsed = perf_counter() - start

    shards = [_shard_entry(result) for result in results]
    document = build_verify_artifact(
        shards,
        designs=designs,
        sizes=sizes,
        budget=opts.budget,
        minimize=not opts.no_minimize,
        wall_time_s=elapsed,
    )
    problems = validate_verify_artifact(document)
    if problems:  # a malformed artifact is a bug in this module
        for problem in problems:
            print(f"artifact problem: {problem}", file=sys.stderr)
        return 1
    if opts.json_path:
        write_json(opts.json_path, document)

    totals = document["totals"]
    ok = totals["failures"] == 0 and totals["errors"] == 0
    print(
        f"verify: {totals['shards']} shard(s), {totals['cases']} case(s), "
        f"{totals['instructions']} instruction(s), "
        f"{totals['failures']} failure(s), {totals['errors']} error(s) "
        f"in {elapsed:.1f}s",
        file=sys.stderr,
    )
    return 0 if ok else 1
