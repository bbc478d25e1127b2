"""End-to-end benchmark of the simulator, with per-layer timing.

Run from the root of a checkout::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``reproduce`` regenerates all 15
reports cold, ``simulate`` runs wide-window programs through
``repro.api``, ``verify-fuzz`` differentially fuzzes generated cases.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` measures untraced for half of ``--seconds``,
then traced for the other half, and reports the per-layer metrics:
self time per layer per traced pass, call counts, and the remainder
that no layer span covers.  Both print every metric by name with its
unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with provenance and the span table, also goes to
``perfbench/out/<workload>.trace<0|1>.json``.

End-to-end times are in reference-host seconds: a fixed reference
kernel runs before and after every pass, and its measured time
rescales the pass, so the shared host's minute-scale speed swings
cancel (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# byte-code goes to the benchmark's own output, never next to any source
sys.pycache_prefix = str(OUT / "pycache")

from tracing import OP, CycleClock, SpanRecorder, Tracing  # noqa: E402
from workloads import EXPERIMENTS, SIM_KEYS, WORKLOADS  # noqa: E402

#: set-ups per run; setup_s is their median
SETUPS = 9

#: reference_seconds() on a quiet host (median on a 2-vCPU x86_64 VM,
#: CPython 3.11); host times are scaled by REFERENCE_S / measured, so the
#: host's minute-scale speed swings cancel out of the end-to-end metrics
REFERENCE_CYCLES = 250
REFERENCE_S = 0.042

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: span name -> its per-layer self-time row (seconds per traced pass)
LAYER_SPANS = {
    "ultrascalar": "ultrascalar.self_s",
    "ultrascalar.vector_run": "ultrascalar.vector_run_s",
    "frontend.fetch_cycle": "frontend.fetch_cycle_s",
    "frontend.predict": "frontend.predict_s",
    "memory": "memory.s",
    "telemetry.cycle_hook": "telemetry.hook_s",
    "isa.run_program": "isa.run_program_s",
    "verify.run_oracle": "verify.run_oracle_s",
    "verify.run_case": "verify.run_case_s",
    "verify.invariants": "verify.invariants_s",
    "verify.generate_case": "verify.generate_case_s",
    "baseline.dataflow_schedule": "baseline.dataflow_schedule_s",
    "circuits.build": "circuits.build_s",
    "circuits.netlist_simulate": "circuits.netlist_simulate_s",
    "runner": "runner.overhead_s",
    **{f"experiments.{key}": f"experiments.{key}_s" for key in EXPERIMENTS},
}
#: span name -> its calls-per-pass row
CALL_ROWS = {
    "frontend.fetch_cycle": "frontend.fetch_cycle_calls",
    "isa.run_program": "isa.run_program_calls",
    "verify.invariants": "verify.invariant_checks",
    "circuits.netlist_simulate": "circuits.netlist_simulate_calls",
}
#: counters taken at span boundaries, per pass
COUNTER_ROWS = ("frontend.delivered", "frontend.predict_calls", "memory.calls")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {row: "s" for row in LAYER_SPANS.values()}
    units.update({row: "count" for row in CALL_ROWS.values()})
    units.update({row: "count" for row in COUNTER_ROWS})
    units.update({
        "verify.case_s_p50": "s",
        "verify.case_s_p90": "s",
        "runner.build_jobs_s": "s",
        "workloads.generate_s": "s",
        "telemetry.traced_wall_s": "s",
        "telemetry.trace_overhead_frac": "frac",
        "remainder_s": "s",
    })
    for key in SIM_KEYS:
        units[f"sim_cycles_per_s.{key}"] = "1/s"
        units[f"sim.cycles.{key}"] = "count"
        units[f"ultrascalar.occupancy_frac.{key}"] = "frac"
        units[f"ultrascalar.self_s.{key}"] = "s"
        units[f"ultrascalar.cycle_us_p50.{key}"] = "us"
        units[f"ultrascalar.cycle_us_p90.{key}"] = "us"
    return units


def percentile(values: list[float], share: int) -> float:
    """The *share*-th percentile (10, 50 or 90) of *values*; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[share // 10 - 1]


def git_revision(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` (no subprocess); None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the paths and contents of ``src/repro/**/*.py``."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def tree_snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file outside the benchmark's output and build dirs."""
    skip = {OUT, root / ".git", root / ".bench_build"}
    files = {}
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = [d for d in subdirs if Path(directory, d) not in skip]
        for name in names:
            stat = os.stat(os.path.join(directory, name))
            files[os.path.relpath(os.path.join(directory, name), root)] = (
                stat.st_size,
                stat.st_mtime_ns,
            )
    return files


def reference_seconds() -> float:
    """Host time of a fixed pure-Python kernel: the yardstick for host speed.

    The kernel copies and updates small lists the way the engines'
    per-cycle register views do, so when a neighbour on a shared host
    contends for caches and memory it slows down with the program.
    """
    start = perf_counter()
    stations, width = 256, 32
    total = 0
    for cycle in range(REFERENCE_CYCLES):
        values, ready = list(range(width)), [True] * width
        views = []
        for position in range(stations):
            views.append((list(values), list(ready)))
            values[position % width] = cycle
            ready[(position + cycle) % width] = not ready[(position + cycle) % width]
        for seen, flags in views:
            total += seen[cycle % width] + flags.count(True)
    return perf_counter() - start


def measure(workload, seconds: float, recorder: SpanRecorder | None = None):
    """Passes until *seconds* have elapsed (at least one); returns (passes, wall).

    The reference kernel runs before and after every pass; the pass's
    ``scale`` converts its host seconds to reference-host seconds.  The
    returned wall excludes the reference runs.
    """
    passes = []
    reference_total = 0.0
    start = perf_counter()
    while True:
        before = reference_seconds()
        one = workload.run_pass(recorder)
        after = reference_seconds()
        one.scale = REFERENCE_S / ((before + after) / 2)
        reference_total += before + after
        passes.append(one)
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return passes, elapsed - reference_total


def median_wall(passes) -> float:
    """Reference-host seconds of one pass, each operation at its median.

    Every pass makes the same calls in the same order, so the median of
    each call over the passes filters the host's noise call by call.
    """
    per_call = zip(*([seconds * p.scale for _, seconds in p.ops] for p in passes))
    return sum(statistics.median(times) for times in per_call)


def end_to_end(workload, passes, setup_times: list[float]) -> dict[str, float]:
    wall = median_wall(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cases_per_s": workload.ops_per_pass / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def op_seconds(passes) -> dict[str, list[float]]:
    by_label: dict[str, list[float]] = {}
    for one in passes:
        for label, seconds in one.ops:
            by_label.setdefault(label, []).append(seconds * one.scale)
    return by_label


def sim_rates(workload, passes) -> dict[str, float]:
    """Simulated cycles per host-second for each simulate run (median run time)."""
    if workload.name != "simulate":
        return {}
    times = op_seconds(passes)
    return {
        f"sim_cycles_per_s.{run.key}": run.cycles / statistics.median(times[run.key])
        for run in workload.runs
    }


def per_layer(workload, untraced, traced, traced_wall, recorder, setup_rows, counted):
    """Every per-layer metric; layers this workload does not touch read 0."""
    rows = {name: 0.0 for name in per_layer_units()}
    count = len(traced)
    table = recorder.aggregate()
    attributed = 0.0
    for (label, span), (calls, _, self_s) in table.items():
        if span == OP:
            continue
        row = LAYER_SPANS[span]
        rows[row] += self_s / count
        attributed += self_s
        if span in CALL_ROWS:
            rows[CALL_ROWS[span]] += calls / count
        if span == "ultrascalar" and label in SIM_KEYS:
            rows[f"ultrascalar.self_s.{label}"] += self_s / count
    for name in COUNTER_ROWS:
        rows[name] = recorder.counts.get(name, 0) / count
    rows["telemetry.traced_wall_s"] = traced_wall / count
    rows["remainder_s"] = (traced_wall - attributed) / count
    rows["telemetry.trace_overhead_frac"] = median_wall(traced) / median_wall(untraced) - 1.0
    for name, values in setup_rows.items():
        rows[name] = statistics.median(values)
    cases = op_seconds(untraced).get("case", [])
    rows["verify.case_s_p50"] = percentile(cases, 50)
    rows["verify.case_s_p90"] = percentile(cases, 90)
    rows.update(sim_rates(workload, untraced))
    labels = recorder.labels_by_span()
    stamps: dict[int, list[float]] = {}
    for index in recorder.spans_named(CycleClock.name):
        stamps.setdefault(recorder.parent[index], []).append(recorder.start[index])
    cycle_us: dict[str, list[float]] = {}
    for engine_span, times in stamps.items():
        gaps = [(b - a) * 1e6 for a, b in zip(times, times[1:])]
        cycle_us.setdefault(labels[engine_span], []).extend(gaps)
    for key, gaps in cycle_us.items():
        rows[f"ultrascalar.cycle_us_p50.{key}"] = percentile(gaps, 50)
        rows[f"ultrascalar.cycle_us_p90.{key}"] = percentile(gaps, 90)
    rows.update(counted)
    return rows, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: pinned)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no {ROOT / 'src' / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    seed = pins["seed"] if args.seed is None else args.seed
    sys.path.insert(0, str(ROOT / "src"))

    before = tree_snapshot(ROOT)
    workload = WORKLOADS[args.workload](ROOT, pins)
    setup_times: list[float] = []
    setup_rows: dict[str, list[float]] = {}
    for _ in range(SETUPS):
        reference = reference_seconds()
        start = perf_counter()
        rows = workload.setup(seed)
        elapsed = perf_counter() - start
        reference = (reference + reference_seconds()) / 2
        setup_times.append(elapsed * REFERENCE_S / reference)
        for name, value in rows.items():
            setup_rows.setdefault(name, []).append(value)

    from repro.bench.timing import host_fingerprint

    if args.trace:
        untraced, _ = measure(workload, args.seconds / 2)
        counted, errors = workload.count_pass()
        recorder = SpanRecorder()
        with Tracing(recorder, workload.experiments) as tracing:
            traced, traced_wall = measure(workload, args.seconds / 2, recorder)
        metrics, table = per_layer(
            workload, untraced, traced, traced_wall, recorder, setup_rows, counted
        )
        units = per_layer_units()
        passes = untraced + traced
        extra: dict[str, float] = {}
        trace_info = {"spans": len(recorder.start), "missing_targets": tracing.missing}
    else:
        passes, _ = measure(workload, args.seconds)
        metrics = end_to_end(workload, passes, setup_times)
        units = dict(END_TO_END)
        table, errors, trace_info = {}, [], {}
        # workload-specific views of the same passes: printed and saved,
        # but not in the result line, which holds the same keys on every run
        extra = {"failed_frac": 1.0 - metrics["ok_frac"], **sim_rates(workload, passes)}

    errors += [error for one in passes for error in one.errors]
    if multiprocessing.active_children():
        errors.append("the workload left child processes behind")
    after = tree_snapshot(ROOT)
    written = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    if written:
        errors.append(f"files changed outside perfbench/out: {written[:5]}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    provenance = {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": pins["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "git_revision": git_revision(ROOT),
        "src_sha256": source_digest(ROOT),
        "host": host_fingerprint(),
        # measured ÷ quiet-host reference time, median over the passes
        "host_slowdown": statistics.median(1.0 / p.scale for p in passes),
        "why": why.get(workload.name),
        **trace_info,
    }
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:44s} {value:14.6g} {'frac' if name == 'failed_frac' else '1/s'}")
    for error in errors[:10]:
        print(f"error: {error}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(
            {
                "provenance": provenance,
                "metrics": metrics,
                "extra": extra,
                "pass_seconds": [p.seconds for p in passes],
                "errors": errors,
                "spans": [
                    {"op": label, "span": span, "calls": calls, "total_s": total, "self_s": own}
                    for (label, span), (calls, total, own) in sorted(
                        table.items(), key=lambda item: (str(item[0][0]), item[0][1])
                    )
                ],
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
