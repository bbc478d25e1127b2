"""The ``repro-bench/1`` artifact: one benchmark run, machine-readable.

Built on :mod:`repro.util.artifact` like ``repro-runner/2`` and
``repro-verify/1`` (stable field order, validation returning a problem
list rather than raising).  Unlike those artifacts this one is *not* deterministic — the
timings are the payload — but its structure is: two runs of the same
tree produce identical names, groups, units, and metadata, so the
baseline comparator can match entries by name.  Schema::

    {
      "schema": "repro-bench/1",
      "version": "<repro.__version__>",
      "mode": "quick" | "full",
      "host": {
        "python": "3.12.1", "implementation": "CPython",
        "platform": "...", "machine": "...", "cpu_count": <int>,
        "numpy": "..." | null
      },
      "protocol": {
        "clock": "perf_counter", "gc_disabled": true,
        "warmup": <int>, "repeats": <int>
      },
      "totals": {"benchmarks": <int>, "wall_time_s": <float>},
      "results": [
        {
          "name": "engine.us1.w8", "group": "engine",
          "title": "<display title>", "units": "s",
          "metadata": {...},            # structural parameters
          "repeats_s": [<float>, ...],  # every timed repeat, in order
          "best_s": <float>, "median_s": <float>, "mean_s": <float>,
          "stats": {"<counter>": <int>, ...},  # telemetry join ({} if none)
          "rates": {"sim_cycles_per_s": <float>, ...}  # {} if no counters
        }, ...
      ]
    }

``stats`` comes from an extra *untimed* pass inside a telemetry
session, so the timed repeats measure exactly the untraced hot path;
``rates`` joins those counters with the median repeat (simulated cycles
per host-second — the number an optimisation PR moves).
"""

from __future__ import annotations

from typing import Any

from repro.bench.timing import BenchRecord, host_fingerprint, protocol_description
from repro.util.artifact import check_envelope, counter_problems, envelope, iter_entries

BENCH_SCHEMA = "repro-bench/1"


def build_bench_artifact(
    records: list[BenchRecord],
    *,
    mode: str,
    repeats: int,
    warmup: int,
    wall_time_s: float = 0.0,
) -> dict[str, Any]:
    """Assemble the artifact document for one ``bench`` invocation."""
    return envelope(
        BENCH_SCHEMA,
        mode=mode,
        host=host_fingerprint(),
        protocol=protocol_description(repeats, warmup),
        totals={
            "benchmarks": len(records),
            "wall_time_s": round(wall_time_s, 6),
        },
        results=[
            {
                "name": r.name,
                "group": r.group,
                "title": r.title,
                "units": "s",
                "metadata": r.metadata,
                "repeats_s": [round(t, 9) for t in r.timing.repeats],
                "best_s": round(r.timing.best_s, 9),
                "median_s": round(r.timing.median_s, 9),
                "mean_s": round(r.timing.mean_s, 9),
                "stats": r.stats,
                "rates": {k: round(v, 3) for k, v in r.rates.items()},
            }
            for r in records
        ],
    )


def validate_bench_artifact(document: Any) -> list[str]:
    """Return schema problems with a ``repro-bench/1`` artifact.

    An empty list means the document is well formed (the contract the
    CI bench-smoke job checks before trusting or uploading a run).
    """
    problems = check_envelope(
        document,
        BENCH_SCHEMA,
        ("version", "mode", "host", "protocol", "totals", "results"),
    )
    if not isinstance(document, dict):
        return problems
    host = document.get("host")
    if isinstance(host, dict):
        for key in ("python", "platform", "cpu_count"):
            if key not in host:
                problems.append(f"host missing key {key!r}")
    elif host is not None:
        problems.append("host is not an object")
    totals = document.get("totals")
    if isinstance(totals, dict):
        if not isinstance(totals.get("benchmarks"), int):
            problems.append("totals.benchmarks is not an int")
    elif totals is not None:
        problems.append("totals is not an object")
    seen: set[str] = set()
    for label, entry in iter_entries(
        document.get("results"),
        "results",
        ("name", "group", "units", "metadata", "repeats_s",
         "best_s", "median_s", "stats", "rates"),
        problems,
    ):
        name = entry.get("name")
        if isinstance(name, str):
            if name in seen:
                problems.append(f"{label} duplicates name {name!r}")
            seen.add(name)
        repeats = entry.get("repeats_s")
        if repeats is not None:
            if not (
                isinstance(repeats, list)
                and repeats
                and all(isinstance(t, (int, float)) and t >= 0 for t in repeats)
            ):
                problems.append(
                    f"{label}.repeats_s is not a non-empty list of "
                    "non-negative numbers"
                )
        problems.extend(counter_problems(entry.get("stats"), f"{label}.stats"))
    return problems
