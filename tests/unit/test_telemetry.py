"""Unit tests for the telemetry subsystem: tracers, sessions, engine
counters, and the Chrome trace-event export.

The counter-exactness tests pin a hand-scheduled four-instruction
program on all three processor designs; the golden-counter test pins
the same run against the committed ``tests/golden/telemetry_counters.json``
so counter regressions show up as a diffable artifact change.
"""

import json
import pathlib

import pytest

from repro.isa import assemble
from repro.telemetry import (
    NULL_TRACER,
    CountingTracer,
    EventTracer,
    NullTracer,
    TraceEvent,
    Tracer,
    build_chrome_trace,
    collecting,
    current_tracer,
    validate_chrome_trace,
)
from repro.api import ProcessorConfig, build_processor
from repro.workloads import store_load_pairs

#: four instructions, hand-schedulable by eye: an immediate write to
#: r1, a store of r1 (one register forward), a load that can be
#: store-forwarded, and the halt — all four fetch in one cycle into a
#: four-station window
FOUR_INSTRUCTIONS = """
    addi r1, r0, 7
    sw   r1, 0(r0)
    lw   r2, 0(r0)
    halt
"""

GOLDEN_COUNTERS = pathlib.Path("tests/golden/telemetry_counters.json")


def run_four(kind: str, tracer=None):
    """Run one of the three designs on the four-instruction program."""
    config = ProcessorConfig(window_size=4, fetch_width=4)
    return build_processor(kind, config, cluster_size=2).run(
        assemble(FOUR_INSTRUCTIONS), tracer=tracer
    )


class TestTracers:
    def test_null_tracer_is_disabled_and_empty(self):
        tracer = NullTracer()
        tracer.count("anything", 5)
        tracer.event("e", cat="c", ts=0)
        assert tracer.enabled is False
        assert tracer.snapshot() == {}

    def test_counting_tracer_accumulates_and_sorts(self):
        tracer = CountingTracer()
        tracer.count("b")
        tracer.count("a", 2)
        tracer.count("b", 3)
        assert list(tracer.snapshot().items()) == [("a", 2), ("b", 4)]

    def test_event_tracer_records_timeline(self):
        tracer = EventTracer()
        tracer.event("inst", cat="instruction", ts=3, dur=2, tid=1, seq=0)
        [event] = tracer.events
        assert event == TraceEvent(
            name="inst", cat="instruction", ts=3, dur=2, tid=1, args={"seq": 0}
        )

    def test_implementations_satisfy_protocol(self):
        for tracer in (NullTracer(), CountingTracer(), EventTracer()):
            assert isinstance(tracer, Tracer)


class TestSession:
    def test_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_collecting_installs_and_restores(self):
        with collecting() as tracer:
            assert current_tracer() is tracer
            assert isinstance(tracer, CountingTracer)
        assert current_tracer() is NULL_TRACER

    def test_sessions_nest(self):
        outer = CountingTracer()
        inner = CountingTracer()
        with collecting(outer):
            with collecting(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_session_tracer_reaches_engines(self):
        with collecting() as tracer:
            run_four("us1")
        assert tracer.snapshot()["commit.instructions"] == 4

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER


class TestCounterExactness:
    """Hand-derived counters for the four-instruction program.

    All four instructions fetch in cycle 0 (one active fetch cycle,
    four stations refilled); the remaining cycles fetch nothing
    (starved: the program is exhausted).  Four instructions issue and
    commit; the store and the load each hit memory once.
    """

    def expected_common(self):
        return {
            "fetch.instructions": 4,
            "fetch.cycles_active": 1,
            "fetch.delivered": 4,
            "fetch.refilled_stations": 4,
            "issue.instructions": 4,
            "commit.instructions": 4,
            "commit.mispredictions": 0,
            "commit.squashed": 0,
            "mem.loads": 1,
            "mem.stores": 1,
            "mem.requests": 2,
        }

    @pytest.mark.parametrize("kind", ["us1", "us2", "hybrid"])
    def test_common_counters_exact(self, kind):
        tracer = CountingTracer()
        run_four(kind, tracer=tracer)
        stats = tracer.snapshot()
        for name, value in self.expected_common().items():
            assert stats[name] == value, f"{kind}: {name}"

    def test_refill_mode_distinguishes_designs(self):
        snapshots = {}
        for kind in ("us1", "us2", "hybrid"):
            tracer = CountingTracer()
            run_four(kind, tracer=tracer)
            snapshots[kind] = tracer.snapshot()
        # per-station on the ring: each of the 4 stations recycles alone
        assert snapshots["us1"]["fetch.refills.per_station"] == 4
        # whole-batch on the US-II: one refill of the whole window
        assert snapshots["us2"]["fetch.refills.whole_batch"] == 1
        # per-cluster on the hybrid: two clusters of two stations
        assert snapshots["hybrid"]["fetch.refills.per_cluster"] == 2

    def test_station_forwarding_visible_where_it_happens(self):
        # the US-II keeps its batch allocated until everyone finishes,
        # so the store still sees r1's writer station at issue time; the
        # ring has already committed and recycled station 0, so the same
        # read comes from the register file
        us2 = CountingTracer()
        run_four("us2", tracer=us2)
        assert us2.snapshot()["forward.from_station"] == 1
        assert us2.snapshot()["forward.hops.1"] == 1
        us1 = CountingTracer()
        run_four("us1", tracer=us1)
        assert us1.snapshot()["forward.from_regfile"] == 4
        assert "forward.from_station" not in us1.snapshot()

    @pytest.mark.parametrize("kind", ["us1", "us2", "hybrid"])
    def test_golden_counters_pinned(self, kind):
        golden = json.loads(GOLDEN_COUNTERS.read_text(encoding="utf-8"))
        tracer = CountingTracer()
        run_four(kind, tracer=tracer)
        assert tracer.snapshot() == golden[kind]


class TestSeedKernelCoverage:
    """Acceptance criterion: all three factories report non-zero
    fetch/issue/forward/memory counters on a seed kernel."""

    @pytest.mark.parametrize("kind", ["us1", "us2", "hybrid"])
    def test_counter_families_nonzero(self, kind):
        workload = store_load_pairs(6)
        config = ProcessorConfig(window_size=8, fetch_width=4)
        tracer = CountingTracer()
        build_processor(kind, config, cluster_size=2).run(
            workload.program, initial_registers=workload.registers_for(), tracer=tracer
        )
        stats = tracer.snapshot()
        for family in ("fetch.", "issue.", "forward.", "mem."):
            assert any(
                name.startswith(family) and value > 0
                for name, value in stats.items()
            ), f"{kind}: no non-zero {family}* counter in {sorted(stats)}"


class TestTracingChangesNothing:
    """Observing a run must not change it."""

    @pytest.mark.parametrize("kind", ["us1", "us2", "hybrid"])
    def test_traced_run_matches_untraced(self, kind):
        plain = run_four(kind)
        traced = run_four(kind, tracer=EventTracer())
        assert traced.cycles == plain.cycles
        assert traced.registers == plain.registers
        assert [t.issue_cycle for t in traced.timings] == [
            t.issue_cycle for t in plain.timings
        ]

    def test_untraced_result_has_empty_stats(self):
        result = run_four("us1")
        assert result.stats == {}

    def test_golden_reports_byte_identical_without_tracing(self):
        # the default path (no session, NullTracer) must reproduce the
        # committed report text exactly — tracing is strictly additive
        from repro.experiments import fig3_timing

        golden = pathlib.Path("tests/golden/fig3.txt").read_text(encoding="utf-8")
        assert fig3_timing.report() == golden


class TestChromeExport:
    def run_events(self):
        tracer = EventTracer()
        run_four("us2", tracer=tracer)
        return tracer

    def test_engine_emits_one_event_per_commit(self):
        tracer = self.run_events()
        assert len(tracer.events) == tracer.snapshot()["commit.instructions"]

    def test_trace_document_validates(self):
        tracer = self.run_events()
        document = build_chrome_trace(tracer.events, process_name="test")
        assert validate_chrome_trace(document) == []
        names = [e["name"] for e in document["traceEvents"]]
        assert names[0] == "process_name"  # metadata event first

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": []}) != []  # no schema
        bad_event = {
            "traceEvents": [{"ph": "X"}],
            "otherData": {"schema": "repro-trace/1"},
        }
        problems = validate_chrome_trace(bad_event)
        assert any("missing" in p for p in problems)

    def test_roundtrips_through_json(self, tmp_path):
        from repro.util.artifact import write_json

        tracer = self.run_events()
        path = write_json(tmp_path / "t.json", build_chrome_trace(tracer.events))
        assert validate_chrome_trace(json.loads(path.read_text())) == []
