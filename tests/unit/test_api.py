"""Unit tests for the stable :mod:`repro.api` facade."""

import pytest

from repro.api import (
    CountingTracer,
    Processor,
    ProcessorConfig,
    ProcessorResult,
    TimingRecord,
    build_processor,
)
from repro.isa import LatencyModel, assemble
from repro.workloads import paper_sequence

SOURCE = """
    addi r1, r0, 3
    addi r2, r1, 4
    halt
"""


class TestBuildProcessor:
    def test_canonical_kinds(self):
        for kind in ("us1", "us2", "hybrid"):
            processor = build_processor(kind)
            assert isinstance(processor, Processor)
            assert processor.kind == kind

    def test_only_canonical_kinds(self):
        for kind in ("ring", "US1", "ultrascalar2"):
            with pytest.raises(ValueError, match="unknown processor kind"):
                build_processor(kind)

    def test_unknown_kind_suggests(self):
        with pytest.raises(ValueError, match="did you mean.*hybrid"):
            build_processor("hybird")

    def test_unknown_kind_lists_choices(self):
        with pytest.raises(ValueError, match="'us1', 'us2', 'hybrid'"):
            build_processor("zzz")

    def test_config_defaults(self):
        assert build_processor("us1").config == ProcessorConfig()

    def test_default_latencies_are_the_papers(self):
        config = ProcessorConfig()
        assert config.latencies == LatencyModel()
        assert config.latencies.by_code == LatencyModel().by_code
        assert repr(config) == (
            "ProcessorConfig(window_size=8, fetch_width=4, latencies=LatencyModel("
            "alu=1, mul=3, div=10, load=1, store=1, branch=1, jump=1, system=1), "
            "num_alus=None, store_forwarding=False, self_timed=False, max_cycles=1000000)"
        )


class TestRun:
    def test_run_returns_processor_result(self):
        result = build_processor("us1").run(assemble(SOURCE))
        assert isinstance(result, ProcessorResult)
        assert result.registers[2] == 7
        assert all(isinstance(t, TimingRecord) for t in result.timings)

    def test_handle_is_reusable(self):
        processor = build_processor("us2", ProcessorConfig(window_size=4))
        first = processor.run(assemble(SOURCE))
        second = processor.run(assemble(SOURCE))
        assert first.cycles == second.cycles
        assert first.registers == second.registers

    def test_all_kinds_agree_on_architectural_state(self):
        program = assemble(SOURCE)
        results = [build_processor(k).run(program) for k in ("us1", "us2", "hybrid")]
        assert len({tuple(r.registers) for r in results}) == 1

    def test_tracer_keyword_fills_stats(self):
        tracer = CountingTracer()
        result = build_processor("us1").run(assemble(SOURCE), tracer=tracer)
        assert result.stats
        assert result.stats == tracer.snapshot()
        assert result.stats["commit.instructions"] == 3

    def test_initial_registers(self):
        workload = paper_sequence()
        result = build_processor("hybrid", cluster_size=2).run(
            workload.program, initial_registers=workload.registers_for()
        )
        assert result.halted
        assert result.ipc > 0
