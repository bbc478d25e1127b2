"""The shared artifact core (repro.util.artifact) and the five kinds built on it."""

import json

import pytest

from repro.bench.artifact import build_bench_artifact
from repro.bench.timing import BenchRecord, Timing
from repro.runner.artifacts import build_artifact, build_run_trace
from repro.runner.metrics import JobResult
from repro.util.artifact import check_envelope, read_json
from repro.verify.artifact import build_verify_artifact
from repro.verify.cli import _shard_entry
from repro.verify.fuzz import CaseFailure, FuzzCase, generate_case, reproducer_dict


def _job(**overrides):
    fields = dict(
        experiment="fig3", title="Figure 3", kwargs={"n": 4}, index=0, count=1,
        status="ok", cache_hit=False, attempts=1, wall_time_s=0.5, output="x",
        stats={"cycles": 3},
    )
    return JobResult(**(fields | overrides))


def _runner():
    return build_artifact([_job()]), "results"


def _trace():
    return build_run_trace([_job()]), "traceEvents"


def _verify():
    failed = _job(experiment="verify", kwargs={"seed": 3}, status="failed", output=None,
                  error="Traceback\nRuntimeError: boom", stats=None)
    document = build_verify_artifact(
        [_shard_entry(failed)], designs=("us1",), sizes=(4,), budget=10, minimize=True
    )
    return document, "shards"


def _bench():
    record = BenchRecord(name="toy.a", group="toy", title="t", metadata={"size": 1},
                         timing=Timing(repeats=(0.01, 0.02), warmup=1), stats={"cycles": 10})
    return build_bench_artifact([record], mode="quick", repeats=2, warmup=1), "results"


def _failure():
    case = generate_case(0, 6)
    shorter = FuzzCase(seed=0, program=generate_case(0, 2).program,
                       initial_registers=case.initial_registers, memory_image=case.memory_image)
    failure = CaseFailure(case=case, window=4, report=None, error="boom")
    return reproducer_dict(failure, shorter), "divergences"


#: (builder, top-level keys, keys of the last entry), pinned in order
KEY_ORDER = {
    "runner": (_runner,
               ["schema", "version", "workers", "cache_dir", "totals", "results"],
               ["experiment", "title", "kwargs", "sweep_index", "sweep_count", "status",
                "cache_hit", "attempts", "wall_time_s", "output_sha256", "output_chars",
                "error", "stats"]),
    "trace": (_trace,
              ["traceEvents", "displayTimeUnit", "otherData"],
              ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"]),
    "verify": (_verify,
               ["schema", "version", "designs", "sizes", "budget", "minimize", "totals",
                "shards"],
               ["seed", "status", "cases", "instructions", "failures", "error"]),
    "bench": (_bench,
              ["schema", "version", "mode", "host", "protocol", "totals", "results"],
              ["name", "group", "title", "units", "metadata", "repeats_s", "best_s",
               "median_s", "mean_s", "stats", "rates"]),
    "failure": (_failure,
                ["schema", "version", "seed", "window", "divergences", "program",
                 "initial_registers", "memory_image", "shrunk_program", "shrunk_size"],
                ["design", "field", "detail"]),
}


@pytest.mark.parametrize("kind", list(KEY_ORDER))
def test_key_order_is_pinned(kind, monkeypatch):
    monkeypatch.setattr(
        "repro.bench.artifact.host_fingerprint",
        lambda: {"python": "3", "platform": "p", "cpu_count": 1},
    )
    build, top_level, entry = KEY_ORDER[kind]
    document, entries = build()
    assert list(document) == top_level
    assert list(document[entries][-1]) == entry
    if kind == "trace":  # the envelope lives in otherData
        assert list(document["otherData"]) == ["schema", "version", "jobs"]


class TestReadJson:
    def test_read_names_every_problem(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "y/1"}))
        with pytest.raises(ValueError) as info:
            read_json(path, lambda d: check_envelope(d, "x/1", ("version", "items")))
        message = str(info.value)
        assert str(path) in message
        assert "'y/1'" in message and "'version'" in message and "'items'" in message

    def test_read_rejects_non_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            read_json(path, lambda d: [])
