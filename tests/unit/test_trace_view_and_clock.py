"""Unit tests for the pipeline trace viewer and the clock projections."""

import pytest

from repro.analysis.clock_period import (
    performance,
    project_hybrid,
    project_ultrascalar1,
    project_ultrascalar2,
)
from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.ultrascalar.trace_view import render_pipeline
from repro.workloads import paper_sequence


@pytest.fixture(scope="module")
def paper_result():
    w = paper_sequence()
    config = ProcessorConfig(window_size=9, fetch_width=9)
    return build_processor("us1", config).run(
        w.program, memory=IdealMemory(), initial_registers=w.registers_for()
    )


class TestRenderPipeline:
    def test_one_row_per_instruction(self, paper_result):
        text = render_pipeline(paper_result)
        body = [ln for ln in text.splitlines() if "|" in ln][1:]  # skip header
        assert len(body) == len(paper_result.timings)

    def test_divide_shows_ten_execute_cells(self, paper_result):
        text = render_pipeline(paper_result)
        div_line = next(ln for ln in text.splitlines() if ln.startswith("div"))
        # ten cycles of divide; the last doubles as the commit (marked *)
        assert div_line.count("E") + div_line.count("*") == 10

    def test_dependent_add_waits(self, paper_result):
        text = render_pipeline(paper_result)
        add_line = next(ln for ln in text.splitlines() if ln.startswith("add r0, r0, r3"))
        assert add_line.count("f") == 10  # waits out the divide

    def test_commit_marked(self, paper_result):
        text = render_pipeline(paper_result)
        for line in text.splitlines():
            if line.startswith(("div", "add", "sub", "mul", "halt")):
                assert "C" in line or "*" in line

    def test_truncation(self, paper_result):
        text = render_pipeline(paper_result, max_instructions=3)
        assert "more instructions" in text

    def test_empty(self):
        from repro.ultrascalar.processor import ProcessorResult

        empty = ProcessorResult(cycles=0, commit_log=[], registers=[], memory={}, halted=False)
        assert render_pipeline(empty) == "(no instructions)"


class TestClockProjections:
    def test_period_combines_gates_and_wires(self):
        projection = project_ultrascalar1(64, 32)
        assert projection.period == pytest.approx(
            projection.gate_delays + projection.wire_delay_units
        )
        assert projection.frequency == pytest.approx(1.0 / projection.period)

    def test_us1_gate_delay_logarithmic(self):
        small = project_ultrascalar1(64, 32).gate_delays
        large = project_ultrascalar1(4096, 32).gate_delays
        assert large - small == pytest.approx(2 * 6, abs=0.1)  # +2 per doubling

    def test_us2_variants_ordered(self):
        linear = project_ultrascalar2(256, 32, variant="linear")
        mixed = project_ultrascalar2(256, 32, variant="mixed")
        tree = project_ultrascalar2(256, 32, variant="tree")
        assert tree.gate_delays < mixed.gate_delays < linear.gate_delays

    def test_hybrid_period_beats_us1_at_scale(self):
        us1 = project_ultrascalar1(4096, 32)
        hybrid = project_hybrid(4096, 32)
        assert hybrid.period < us1.period

    def test_performance_bundle(self):
        projection = project_hybrid(256, 32)
        perf = performance(projection, ipc=4.0)
        assert perf.instructions_per_time == pytest.approx(4.0 / projection.period)
        with pytest.raises(ValueError):
            performance(projection, ipc=-1)
