"""Unit tests for the later experiment drivers (E12-E16)."""

import pytest

from repro.api import ProcessorConfig, build_processor
from repro.experiments import (
    dominance_map,
    ilp_limits,
    one_cm_chip,
    performance_projection,
    window_vs_issue,
)
from repro.vlsi.hybrid_layout import HybridLayout
from repro.vlsi.tech import TRACK_UM, tracks_to_cm


def us1_ring_counts(workload, window):
    """(cycles, instructions committed) of the Ultrascalar I ring that
    E14's and E15's recurrence stands for."""
    processor = build_processor(
        "us1", ProcessorConfig(window_size=window, fetch_width=min(window, 64))
    )
    result = processor.run(workload.program, initial_registers=workload.registers_for())
    return result.cycles, result.instructions_committed


class TestWindowVsIssue:
    @pytest.fixture(scope="class")
    def outcome(self):
        return window_vs_issue.run()

    def test_monotone_both_axes(self, outcome):
        assert outcome.monotone_in_window()
        assert outcome.monotone_in_alus()

    def test_one_alu_pins_ipc(self, outcome):
        assert outcome.ipc_at(16, 1) <= 1.05

    def test_default_grid(self, outcome):
        assert outcome.monotone_in_window()
        assert outcome.monotone_in_alus()
        # the window discovers parallelism; ALUs merely retire it
        assert outcome.ipc_at(64, 4) > 1.3 * outcome.ipc_at(4, 16)
        one_alu = [outcome.ipc_at(w, 1) for w in outcome.windows]
        assert max(one_alu) - min(one_alu) < 0.1
        assert outcome.ipc_at(4, 8) == outcome.ipc_at(4, 16)

    def test_report_renders(self):
        assert "window" in window_vs_issue.report()


class TestDominanceMap:
    @pytest.fixture(scope="class")
    def outcome(self):
        return dominance_map.run()

    def test_incomparability(self, outcome):
        assert outcome.us1_wins_somewhere()
        assert outcome.us2_wins_somewhere()

    def test_monotone_boundary(self, outcome):
        assert outcome.pairwise_boundary_is_monotone()

    def test_full_coverage(self, outcome):
        assert len(outcome.winner_pairwise) == 6 * 5  # n values x L values
        assert set(outcome.winner_overall.values()) <= {"US1", "US2", "HYB"}

    def test_default_map(self, outcome):
        assert outcome.us1_wins_somewhere()
        assert outcome.us2_wins_somewhere()
        assert outcome.pairwise_boundary_is_monotone()
        assert outcome.hybrid_wins_at_scale()

        def first_us1_n(L):
            return next(n for n in outcome.n_values if outcome.winner_pairwise[(n, L)] == "US1")

        # the Θ(L²) diagonal: quadrupling L moves the crossover 16x in n
        assert first_us1_n(32) == 16 * first_us1_n(8)

    def test_report_shows_both_maps(self):
        text = dominance_map.report()
        assert "incomparability" in text
        assert "Overall winner" in text


class TestPerformanceProjection:
    @pytest.fixture(scope="class")
    def outcome(self):
        return performance_projection.run()

    def test_conventional_collapses(self, outcome):
        perf = [row.conventional_performance for row in outcome.rows]
        assert perf[-1] < perf[0]

    def test_rows_carry_all_designs(self, outcome):
        for row in outcome.rows:
            assert row.us1.clock.processor == "ultrascalar1"
            assert row.hybrid.clock.processor == "hybrid"
            assert row.ipc > 0

    def test_default_sweep(self, outcome):
        assert outcome.conventional_collapses()
        assert outcome.hybrid_wins_at_scale()
        for row in outcome.rows:
            assert row.hybrid.instructions_per_time >= row.us1.instructions_per_time
        us1 = [row.us1.clock.period for row in outcome.rows]
        hybrid = [row.hybrid.clock.period for row in outcome.rows]
        assert us1 == sorted(us1)
        assert hybrid == sorted(hybrid)
        assert hybrid[-1] < us1[-1]
        # the recurrence's IPC is the ring's, point for point
        for row in outcome.rows:
            assert us1_ring_counts(outcome.workload, row.n) == (
                row.cycles,
                round(row.ipc * row.cycles),
            )

    def test_report_renders(self):
        assert "IPC" in performance_projection.report()


class TestIlpLimits:
    @pytest.fixture(scope="class")
    def outcome(self):
        return ilp_limits.run()

    def test_curves_monotone(self, outcome):
        assert all(curve.monotone() for curve in outcome.curves)

    def test_density_ordering(self, outcome):
        assert outcome.looser_code_has_more_ilp()

    def test_gain_beyond_uses_nearest_window(self, outcome):
        curve = outcome.curves[0]
        assert curve.gain_beyond(100) == pytest.approx(
            curve.saturation_ipc / curve.ipc[curve.windows.index(128)]
        )

    def test_default_sweep(self, outcome):
        assert all(curve.monotone() for curve in outcome.curves)
        assert outcome.looser_code_has_more_ilp()
        # 128 -> 2048 still multiplies IPC by >= 1.5x at every density
        assert outcome.thousand_wide_window_pays()
        # the recurrence's IPC is the ring's, point for point
        for curve in outcome.curves:
            for window, cycles, ipc in zip(curve.windows, curve.cycles, curve.ipc):
                assert us1_ring_counts(curve.workload, window) == (
                    cycles,
                    round(ipc * cycles),
                )

    def test_report_renders(self):
        # the full table is pinned by tests/golden/ilp.txt
        assert "IPC vs window" in ilp_limits.report()


class TestOneCmChip:
    @pytest.fixture(scope="class")
    def outcome(self):
        return one_cm_chip.run()

    def test_fits(self, outcome):
        assert outcome.fits_one_cm
        assert outcome.area_cm2 < 1.0
        assert outcome.ipc > 4.0

    def test_shrink_factor(self, outcome):
        assert one_cm_chip.SHRINK == pytest.approx(0.1 / 0.35)
        assert TRACK_UM * one_cm_chip.SHRINK < 2.0
        # a linear shrink: the same tracks, each one smaller
        side = HybridLayout(128, 32, 32).side_length()
        assert outcome.side_cm == pytest.approx(tracks_to_cm(side) * one_cm_chip.SHRINK)
        assert repr(outcome.side_cm) == "0.8195813949410585"

    def test_report_renders(self):
        text = one_cm_chip.report()
        assert "1 cm" in text
        assert "0.1 um" in text
