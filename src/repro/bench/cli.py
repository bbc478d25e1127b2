"""The ``python -m repro bench`` subcommand.

Runs the registered hot-path benchmarks under the stable timing
protocol and, optionally, records an artifact, diffs against a
baseline, gates on regressions, or profiles each benchmark.

Usage::

    python -m repro bench                       # full suite, table out
    python -m repro bench --quick               # the CI smoke subset
    python -m repro bench --filter engine       # names containing a substring
    python -m repro bench --quick --json BENCH_0.json
    python -m repro bench --compare BENCH_0.json
    python -m repro bench --compare BASE.json --fail-on-regress 25
    python -m repro bench --quick --profile     # cProfile + collapsed stacks

Options::

    --quick           run the CI subset (at least one representative per
                      group; always covers us1, us2, and hybrid)
    --filter S        keep benchmarks whose name contains S (repeatable)
    --list            print the selected benchmarks and exit
    --repeats N       timed repeats per benchmark (default 5, quick 3)
    --warmup N        untimed warmup calls (default 1)
    --json PATH       write a repro-bench/1 artifact
    --compare BASE    diff this run against a baseline artifact
    --fail-on-regress PCT  with --compare: exit 1 when any benchmark is
                      more than PCT percent slower than the baseline
    --profile         cProfile each benchmark; writes .pstats plus
                      collapsed-stack text files
    --profile-dir D   where profiles land (default .repro_cache/profiles)

Exit status: 0 clean, 1 gated regression or internal error, 2 usage.
A bare ``--compare`` never gates (cross-host baselines are
informational); only ``--fail-on-regress`` turns deltas into failures.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.bench.artifact import build_bench_artifact, validate_bench_artifact
from repro.bench.compare import (
    compare_artifacts,
    format_compare_table,
    hosts_differ,
    regressions,
)
from repro.bench.registry import select
from repro.bench.run import run_benchmarks
from repro.bench.timing import BenchRecord
from repro.util.argtypes import int_at_least
from repro.util.artifact import read_json, write_json
from repro.util.log import get_logger

DEFAULT_PROFILE_DIR = ".repro_cache/profiles"

log = get_logger("bench")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro bench", add_help=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--filter", action="append", default=[], dest="filters")
    parser.add_argument("--list", action="store_true", dest="list_benchmarks")
    parser.add_argument("--repeats", type=int_at_least(1), default=None)
    parser.add_argument("--warmup", type=int_at_least(0), default=1)
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument("--compare", dest="compare_path", default=None)
    parser.add_argument(
        "--fail-on-regress", dest="fail_pct", type=float, default=None
    )
    parser.add_argument("--profile", action="store_true")
    parser.add_argument(
        "--profile-dir", dest="profile_dir", default=DEFAULT_PROFILE_DIR
    )
    return parser


def _print_record(record: BenchRecord) -> None:
    timing = record.timing
    line = (
        f"{record.name:<28} best {timing.best_s * 1e3:9.3f}ms  "
        f"median {timing.median_s * 1e3:9.3f}ms"
    )
    cycles_per_s = record.rates.get("sim_cycles_per_s")
    if cycles_per_s is not None:
        line += f"  {cycles_per_s:12,.0f} sim-cycles/s"
    print(line)


def main(argv: list[str] | None = None) -> int:
    """Run the bench subcommand; returns a process exit code."""
    args = sys.argv[1:] if argv is None else argv
    try:
        opts = _build_parser().parse_args(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if opts.fail_pct is not None and opts.compare_path is None:
        print("--fail-on-regress requires --compare BASE.json", file=sys.stderr)
        return 2
    if opts.fail_pct is not None and opts.fail_pct < 0:
        print("--fail-on-regress threshold must be >= 0", file=sys.stderr)
        return 2
    repeats = opts.repeats if opts.repeats is not None else (3 if opts.quick else 5)

    benchmarks = select(quick=opts.quick, substrings=tuple(opts.filters))
    if not benchmarks:
        print(
            f"no benchmarks match filters {opts.filters!r}; "
            "try `python -m repro bench --list`",
            file=sys.stderr,
        )
        return 2
    if opts.list_benchmarks:
        for benchmark in benchmarks:
            marker = "quick" if benchmark.quick else "full "
            print(f"  {benchmark.name:<28} [{marker}] {benchmark.title}")
        return 0

    baseline = None
    if opts.compare_path is not None:
        try:
            baseline = read_json(opts.compare_path, validate_bench_artifact)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline: {exc}", file=sys.stderr)
            return 2

    mode = "quick" if opts.quick else "full"
    log.info("running %d benchmark(s), mode=%s, repeats=%d",
             len(benchmarks), mode, repeats)
    start = perf_counter()
    records = run_benchmarks(
        benchmarks, repeats=repeats, warmup=opts.warmup, on_record=_print_record
    )
    elapsed = perf_counter() - start

    if opts.profile:
        from repro.bench.profile import profile_benchmark

        for benchmark in benchmarks:
            pstats_path, collapsed_path = profile_benchmark(
                benchmark, opts.profile_dir
            )
            print(f"profile: {pstats_path} + {collapsed_path}", file=sys.stderr)

    document = build_bench_artifact(
        records,
        mode=mode,
        repeats=repeats,
        warmup=opts.warmup,
        wall_time_s=elapsed,
    )
    problems = validate_bench_artifact(document)
    if problems:  # a malformed artifact is a bug in this module
        for problem in problems:
            print(f"artifact problem: {problem}", file=sys.stderr)
        return 1
    if opts.json_path:
        write_json(opts.json_path, document)

    exit_code = 0
    if baseline is not None:
        threshold = opts.fail_pct if opts.fail_pct is not None else 5.0
        deltas = compare_artifacts(baseline, document, threshold_pct=threshold)
        print()
        print(format_compare_table(deltas, threshold_pct=threshold))
        if hosts_differ(baseline, document):
            print(
                "note: baseline was recorded on a different host; "
                "deltas compare machines as much as code",
                file=sys.stderr,
            )
        regressed = regressions(deltas)
        if opts.fail_pct is not None and regressed:
            for delta in regressed:
                print(
                    f"regression: {delta.name} {delta.pct:+.1f}% "
                    f"(threshold {threshold:g}%)",
                    file=sys.stderr,
                )
            exit_code = 1

    print(
        f"bench: {len(records)} benchmark(s), {repeats} repeat(s) each, "
        f"{elapsed:.1f}s wall-clock",
        file=sys.stderr,
    )
    return exit_code
