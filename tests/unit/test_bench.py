"""Bench subsystem: timing protocol, registry, artifact schema, runs."""

import gc
import json
from pathlib import Path

import pytest

from repro.bench.artifact import (
    BENCH_SCHEMA,
    build_bench_artifact,
    validate_bench_artifact,
)
from repro.bench.compare import hosts_differ
from repro.bench.registry import REGISTRY, Benchmark, register, select
from repro.bench.run import run_benchmark, run_benchmarks
from repro.bench.timing import (
    BenchRecord,
    Timing,
    host_fingerprint,
    measure,
)
from repro.util.artifact import read_json, write_json


class TestTimingProtocol:
    def test_measure_counts_calls(self):
        calls = []
        timing = measure(lambda: calls.append(1), repeats=4, warmup=2)
        assert len(calls) == 6  # warmup + repeats
        assert len(timing.repeats) == 4
        assert all(t >= 0 for t in timing.repeats)
        assert timing.warmup == 2

    def test_measure_restores_gc(self):
        assert gc.isenabled()
        measure(lambda: None, repeats=1, warmup=0)
        assert gc.isenabled()

    def test_measure_restores_gc_when_fn_raises(self):
        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            measure(boom, repeats=1, warmup=0)
        assert gc.isenabled()

    def test_measure_times_with_the_collector_on_when_asked(self):
        seen = []
        measure(lambda: seen.append(gc.isenabled()), repeats=2, warmup=0)
        measure(lambda: seen.append(gc.isenabled()), repeats=2, warmup=0, collect=True)
        assert seen == [False, False, True, True]
        gc.disable()
        try:
            measure(lambda: None, repeats=1, warmup=0, collect=True)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_measure_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=1, warmup=-1)

    def test_timing_statistics(self):
        timing = Timing(repeats=(0.3, 0.1, 0.2), warmup=1)
        assert timing.best_s == pytest.approx(0.1)
        assert timing.median_s == pytest.approx(0.2)
        assert timing.mean_s == pytest.approx(0.2)
        even = Timing(repeats=(0.1, 0.2, 0.3, 0.4), warmup=0)
        assert even.median_s == pytest.approx(0.25)

    def test_host_fingerprint_fields(self):
        host = host_fingerprint()
        assert host["python"] and host["platform"]
        assert isinstance(host["cpu_count"], int)
        # the package no longer imports NumPy, so the host records no version
        assert "numpy" not in host


class TestRegistry:
    def test_names_unique_and_grouped(self):
        names = list(REGISTRY)
        assert len(names) == len(set(names))
        groups = {b.group for b in REGISTRY.values()}
        assert {
            "engine", "recurrence", "workloads", "frontend", "cspp", "network",
            "circuits", "isa", "runner", "verify",
        } <= groups

    def test_quick_subset_covers_all_designs(self):
        quick = select(quick=True)
        designs = {b.metadata.get("design") for b in quick}
        assert {"us1", "us2", "hybrid"} <= designs
        # one representative per group
        assert {b.group for b in quick} == {b.group for b in REGISTRY.values()}
        # a wide-window engine row keeps large-n scaling in the quick set
        assert any(
            b.group == "engine" and b.metadata["window_size"] >= 256 for b in quick
        )

    def test_circuits_rows_cover_both_grids(self):
        # E9's two US-II netlists each have a row; the quick set keeps the
        # mesh-of-trees one
        circuits = {b.name for b in REGISTRY.values() if b.group == "circuits"}
        assert {"circuits.tgrid.n16", "circuits.tgrid.n32", "circuits.grid.n32"} <= circuits
        assert [b.name for b in select(quick=True) if b.group == "circuits"] == [
            "circuits.tgrid.n16"
        ]

    def test_only_the_circuits_rows_time_with_the_collector_on(self):
        assert {b.group for b in REGISTRY.values() if b.gc} == {"circuits"}
        assert all(b.gc for b in REGISTRY.values() if b.group == "circuits")
        record = run_benchmark(REGISTRY["circuits.tgrid.n16"], repeats=1, warmup=0)
        assert record.metadata == {"stations": 16, "num_registers": 16, "gc": True}

    def test_workloads_row_draws_an_e15_program(self):
        [row] = [b for b in select(quick=True) if b.group == "workloads"]
        assert row.name == "workloads.random_ilp.n4000"
        assert row.metadata == {"instructions": 4000, "density": 0.5, "seed": 507}

    def test_verify_rows_show_the_checker_as_their_gap(self, monkeypatch):
        # the same cases, with and without the invariant checker
        checked = REGISTRY["verify.fuzz.run_case"]
        unchecked = REGISTRY["verify.fuzz.run_case.unchecked"]
        assert checked.quick and unchecked.quick
        assert unchecked.metadata == {**checked.metadata, "check_invariants": False}

        import repro.verify.diff as diff

        checkers = []

        class Counting(diff.InvariantChecker):
            def __init__(self):
                super().__init__()
                checkers.append(self)

        monkeypatch.setattr(diff, "InvariantChecker", Counting)
        unchecked.make()()
        assert checkers == []
        checked.make()()
        assert checkers and all(checker.checks > 0 for checker in checkers)

    def test_filter_selects_substrings(self):
        engines = select(substrings=("engine.",))
        assert engines and all(b.name.startswith("engine.") for b in engines)
        assert select(substrings=("no-such-benchmark",)) == []

    def test_register_rejects_duplicates(self, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.registry.REGISTRY", dict(REGISTRY)
        )
        existing = next(iter(REGISTRY.values()))
        with pytest.raises(ValueError, match="duplicate"):
            register(existing)


def _fake_record(name="toy.alpha", group="toy", repeats=(0.01, 0.02, 0.03)):
    return BenchRecord(
        name=name,
        group=group,
        title=f"title of {name}",
        metadata={"size": 1},
        timing=Timing(repeats=repeats, warmup=1),
        stats={"cycles": 100, "commit.instructions": 50},
    )


class TestArtifact:
    def test_round_trip(self, tmp_path):
        document = build_bench_artifact(
            [_fake_record()], mode="quick", repeats=3, warmup=1, wall_time_s=0.5
        )
        assert validate_bench_artifact(document) == []
        path = write_json(tmp_path / "out" / "BENCH.json", document)
        loaded = read_json(path, validate_bench_artifact)
        assert loaded["schema"] == BENCH_SCHEMA
        [entry] = loaded["results"]
        assert entry["name"] == "toy.alpha"
        assert entry["best_s"] == pytest.approx(0.01)
        assert entry["median_s"] == pytest.approx(0.02)
        assert entry["stats"]["cycles"] == 100
        # the telemetry join: simulated work over median wall-clock
        assert entry["rates"]["sim_cycles_per_s"] == pytest.approx(5000.0)
        assert entry["rates"]["sim_instructions_per_s"] == pytest.approx(2500.0)

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            read_json(path, validate_bench_artifact)

    def test_validate_catches_problems(self):
        assert validate_bench_artifact([]) == ["artifact is not a JSON object"]
        problems = validate_bench_artifact({"schema": "other/9"})
        assert any("schema is" in p for p in problems)
        assert any("missing top-level key" in p for p in problems)

        good = build_bench_artifact(
            [_fake_record()], mode="full", repeats=3, warmup=1
        )
        bad = json.loads(json.dumps(good))
        bad["results"][0].pop("repeats_s")
        assert any(
            "missing key 'repeats_s'" in p for p in validate_bench_artifact(bad)
        )

        bad = json.loads(json.dumps(good))
        bad["results"][0]["stats"] = {"cycles": "many"}
        assert any("str->int" in p for p in validate_bench_artifact(bad))

        bad = json.loads(json.dumps(good))
        bad["results"][0]["repeats_s"] = []
        assert any("repeats_s" in p for p in validate_bench_artifact(bad))

        bad = json.loads(json.dumps(good))
        bad["results"].append(json.loads(json.dumps(bad["results"][0])))
        assert any("duplicates name" in p for p in validate_bench_artifact(bad))

    def test_artifacts_with_a_numpy_host_key_still_validate(self):
        # BENCH_0.json predates the NumPy-free package and records its version
        baseline = read_json(
            Path(__file__).resolve().parents[2] / "BENCH_0.json", validate_bench_artifact
        )
        assert "numpy" in baseline["host"]
        current = json.loads(json.dumps(baseline))
        del current["host"]["numpy"]
        assert validate_bench_artifact(current) == []
        assert not hosts_differ(baseline, current)

    def test_protocol_says_nothing_a_row_contradicts(self):
        # the circuits rows time with the collector on and every other row
        # with it paused, so the protocol block cannot state one GC setting
        records = run_benchmarks(select(quick=True), repeats=1, warmup=0)
        document = build_bench_artifact(records, mode="quick", repeats=1, warmup=0)
        assert validate_bench_artifact(document) == []
        assert {entry["metadata"]["gc"] for entry in document["results"]} == {True, False}
        assert not [key for key in document["protocol"] if "gc" in key], document["protocol"]

    def test_validate_duck_types_results(self):
        document = build_bench_artifact([], mode="full", repeats=1, warmup=0)
        document["results"] = "not-a-list"
        assert "results is not a list" in validate_bench_artifact(document)


class TestRunStructureDeterminism:
    """Two in-process runs agree on everything except the timings."""

    def _structure(self, document):
        return [
            {
                k: entry[k]
                for k in ("name", "group", "title", "units", "metadata", "stats")
            }
            for entry in document["results"]
        ]

    def test_two_runs_same_structure(self):
        benchmarks = select(substrings=("cspp", "network", "isa"))
        assert benchmarks
        documents = []
        for _ in range(2):
            records = run_benchmarks(benchmarks, repeats=1, warmup=0)
            documents.append(
                build_bench_artifact(records, mode="full", repeats=1, warmup=0)
            )
        assert self._structure(documents[0]) == self._structure(documents[1])
        assert validate_bench_artifact(documents[0]) == []

    def test_engine_record_joins_sim_counters(self):
        benchmark = Benchmark(
            name="toy.engine",
            group="toy",
            title="tiny engine run",
            make=lambda: _tiny_engine_thunk(),
            metadata={"design": "us1"},
        )
        record = run_benchmark(benchmark, repeats=1, warmup=0)
        assert record.stats["cycles"] > 0
        assert record.stats["commit.instructions"] > 0
        assert record.rates["sim_cycles_per_s"] > 0


def _tiny_engine_thunk():
    from repro.api import ProcessorConfig, build_processor
    from repro.workloads.generators import independent_ops

    workload = independent_ops(8)
    processor = build_processor("us1", ProcessorConfig(window_size=4))

    def thunk():
        processor.run(
            workload.program, initial_registers=workload.registers_for()
        )

    return thunk
