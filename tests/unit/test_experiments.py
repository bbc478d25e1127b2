"""Unit tests for the experiment drivers E1-E10: structure, invariants,
and the paper's quantitative claims on each experiment's one sweep."""

import pytest

from repro.analysis.asymptotics import lookup as figure11_cell
from repro.analysis.regimes import Regime
from repro.analysis.three_d import lookup
from repro.experiments import (
    cluster_sweep,
    crossover,
    fig3_timing,
    fig11_table,
    fig12_layout,
    gate_depth,
    ipc_equivalence,
    memory_bw,
    selftimed,
    three_d,
)
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout


class TestFig3:
    def test_run_matches_everything(self):
        outcome = fig3_timing.run()
        assert outcome.matches_paper
        assert outcome.matches_dataflow
        assert len(outcome.ultrascalar_spans) == 8
        assert outcome.cycles == 12
        assert outcome.ultrascalar_spans == fig3_timing.PAPER_FIGURE3_SPANS

    def test_report_contains_table_and_diagram(self):
        text = fig3_timing.report()
        assert "div r3, r1, r2" in text
        assert "#" in text  # diagram bars
        assert "matches paper: True" in text

    def test_paper_spans_constant(self):
        assert fig3_timing.PAPER_FIGURE3_SPANS[0] == (0, 10)
        assert len(fig3_timing.PAPER_FIGURE3_SPANS) == 8


class TestFig11:
    def test_validation_exponents(self):
        outcome = fig11_table.validate()
        assert abs(outcome.us1_exponent - 0.5) < 0.06
        assert abs(outcome.us2_exponent - 1.0) < 0.06
        assert abs(outcome.hybrid_exponent - 0.5) < 0.08

    def test_us1_us2_incomparable(self):
        """Small n favours US-II's wire delay, large n US-I's."""

        def wire(kind, n):
            return figure11_cell(Regime.CASE1, kind, "wire_delay").evaluate(n, 64, 1)

        assert wire("ultrascalar2-linear", 64) < wire("ultrascalar1", 64)
        assert wire("ultrascalar1", 1 << 16) < wire("ultrascalar2-linear", 1 << 16)

    def test_report_renders_all_regimes(self):
        text = fig11_table.report()
        assert text.count("Figure 11") >= 3


class TestFig12:
    def test_ratio_matches(self):
        outcome = fig12_layout.run()
        assert outcome.ratio_matches_paper
        assert outcome.density_ratio > 8.0
        assert 100_000 < outcome.hybrid["stations_per_m2"] < 210_000

    def test_win_holds_across_scales(self):
        for n in (64, 256, 1024):
            us1 = Ultrascalar1Layout(n, 32)
            hybrid = HybridLayout(2 * n, 32, 32)
            assert hybrid.stations_per_m2 / us1.stations_per_m2 > 8.0

    def test_report_shows_both_layouts(self):
        text = fig12_layout.report()
        assert "US-I 64-wide" in text
        assert "Hybrid 128-wide" in text


class TestCrossover:
    @pytest.fixture(scope="class")
    def outcome(self):
        return crossover.run()

    def test_structure(self, outcome):
        L_values = {8, 16, 32, 64}
        assert set(outcome.crossovers) == set(outcome.ratio_sweep) == L_values
        assert set(outcome.hybrid_factors) == L_values

    def test_default_sweep(self, outcome):
        assert None not in outcome.crossovers.values()
        assert outcome.crossover_tracks_L_squared()
        for L, sweep in outcome.ratio_sweep.items():
            # US1/US2 wire ratio: US-II wins small n, US-I large n
            assert sweep[0][1] > sweep[-1][1]
            if L <= 32:
                assert sweep[-1][1] < 1.0
        assert outcome.hybrid_factor_grows_like_sqrt_L()
        assert all(factor > 1.0 for factor in outcome.hybrid_factors.values())

    def test_report(self):
        assert "crossover" in crossover.report().lower()


class TestClusterSweep:
    @pytest.fixture(scope="class")
    def outcome(self):
        return cluster_sweep.run()

    def test_structure(self, outcome):
        assert outcome.n == 4096
        assert set(outcome.best) == set(outcome.closed_form_best) == {8, 16, 32, 64}

    def test_default_sweep(self, outcome):
        assert outcome.optimum_tracks_L()
        optima = [outcome.best[L] for L in sorted(outcome.best)]
        assert optima == sorted(optima)
        for L, sides in outcome.sweeps.items():
            best, closed = outcome.best[L], outcome.closed_form_best[L]
            # interior minimum: beats both no clustering and one giant cluster
            assert sides[best] < min(sides[1], sides[max(sides)])
            assert max(best, closed) / min(best, closed) <= 2.0

    def test_report_marks_minimum(self):
        assert "*" in cluster_sweep.report()


class TestMemoryBw:
    @pytest.fixture(scope="class")
    def outcome(self):
        return memory_bw.run()

    def test_exponents(self, outcome):
        assert outcome.exponents_match_paper()
        assert outcome.wire_tracks_side()

    def test_default_sweep(self, outcome):
        assert outcome.exponents_match_paper()
        assert outcome.wire_tracks_side()
        # bandwidth dominates: Case 3 sides grow faster than Case 1's sqrt(n)
        assert outcome.fitted[1.0] > outcome.fitted[0.0] + 0.3
        assert outcome.fitted[0.75] > outcome.fitted[0.0] + 0.1

    def test_report(self):
        assert "case1" in memory_bw.report()


class TestThreeD:
    def test_improvement_grows(self):
        outcome = three_d.run()
        assert outcome.improvement_grows_with_L()
        # the optimal cluster drops from Θ(L) to Θ(L^(3/4))
        assert all(c3d < L for L, c3d in outcome.optimal_cluster_3d.items() if L > 1)

    def test_3d_beats_2d(self):
        n, L = 4096, 64
        assert n * L**2 > lookup("ultrascalar1", "volume").evaluate(n, L, 0)
        assert n**0.5 * L > lookup("ultrascalar1", "wire_delay").evaluate(n, L, 0)

    def test_report(self):
        assert "Θ(n L^(3/2))" in three_d.report()


class TestSelfTimed:
    @pytest.fixture(scope="class")
    def outcome(self):
        return selftimed.run()

    def test_locality(self, outcome):
        assert outcome.at_least_half_local()

    def test_default_sweep(self, outcome):
        assert all(abs(f - 0.75) < 0.01 for f in outcome.local_fraction.values())
        means = list(outcome.mean_wire.values())
        maxes = list(outcome.max_wire.values())
        assert means[-1] < 4.5  # bounded mean ...
        assert maxes[-1] > maxes[0] * 3  # ... while the wrap hop grows

    def test_report(self):
        assert "%" in selftimed.report()


class TestGateDepth:
    @pytest.fixture(scope="class")
    def outcome(self):
        return gate_depth.run()

    def test_small_sweep(self, outcome):
        # E9's sweep is small (n = 4 to 32): the ring settles in exactly n
        assert outcome.sizes == [4, 8, 16, 32]
        assert outcome.ring_times == outcome.sizes

    def test_default_sweep(self, outcome):
        assert 0.85 <= outcome.ring_exponent <= 1.1
        assert 0.85 <= outcome.grid_exponent <= 1.1
        assert outcome.cspp_exponent < 0.6
        assert outcome.tree_grid_exponent < 0.5
        for ring, cspp in zip(outcome.ring_times, outcome.cspp_times):
            assert cspp < ring or ring <= 4
        assert outcome.tree_grid_times[-1] < outcome.grid_times[-1]
        # Θ(log n): each doubling adds a constant number of gate delays
        cspp = outcome.cspp_times
        assert max(b - a for a, b in zip(cspp, cspp[1:])) <= 3

    def test_report(self):
        assert "fitted exponents" in gate_depth.report()


class TestIpcEquivalence:
    def test_full_run(self):
        outcome = ipc_equivalence.run()
        assert outcome.us1_always_matches()
        assert outcome.us2_never_faster()
        # conventional delay grows quadratically, the Ultrascalar's by a
        # constant per doubling, so it wins decisively at high width
        conventional = outcome.conventional_delays
        ultrascalar = outcome.ultrascalar_gate_delays
        widths = sorted(conventional)
        growth = conventional[widths[-1]] / conventional[widths[-3]]
        assert growth > (widths[-1] / widths[-3]) * 1.5
        assert max(ultrascalar[b] - ultrascalar[a] for a, b in zip(widths, widths[1:])) <= 1.01
        assert ultrascalar[widths[-1]] < conventional[widths[-1]] / 10

    def test_report(self):
        text = ipc_equivalence.report()
        assert "Dataflow" in text
        assert "Conventional" in text
