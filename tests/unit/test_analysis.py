"""Unit tests for the analysis package (regimes, recurrences, Figure 11,
fitting, crossover, cluster, 3-D)."""

import math

import pytest

from repro.analysis.asymptotics import FIGURE11, figure11_table, lookup
from repro.analysis.cluster import analytic_optimal_cluster, closed_form_sweep
from repro.analysis.crossover import find_crossover, hybrid_advantage, wire_delay_ratio
from repro.analysis.fitting import fit_exponent, fit_loglog
from repro.analysis.recurrences import u_closed_form
from repro.analysis.regimes import Regime, classify_exponent
from repro.analysis.three_d import lookup as lookup_3d, three_d_table, volume_improvement_2d_to_3d
from repro.network.fattree import bandwidth_power
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout, optimal_cluster_size
from tests.oracles import x_closed_form


class TestRegimes:
    @pytest.mark.parametrize(
        "exponent,expected",
        [(0.0, Regime.CASE1), (0.49, Regime.CASE1), (0.5, Regime.CASE2), (0.51, Regime.CASE3), (1.0, Regime.CASE3)],
    )
    def test_classify_exponent(self, exponent, expected):
        assert classify_exponent(exponent) is expected


class TestRecurrences:
    """The layouts evaluate the paper's recurrences; the closed forms solve them."""

    def test_side_recurrence_base_case(self):
        # X(1) is one station
        layout = Ultrascalar1Layout(1, 32)
        assert layout.side_length() == layout.station.side_tracks
        assert layout.root_to_leaf_wire() == 0.0

    def test_side_recurrence_expands(self):
        # X(4) = B(4) + 2 X(1)
        layout = Ultrascalar1Layout(4, 32)
        assert layout.side_length() == layout.switch_block_side(4) + 2 * layout.side_length(1)

    def test_closed_form_matches_recurrence_growth(self):
        for exponent in (0.0, 0.5, 1.0):
            big, small = 4**9, 4**7
            numeric = (
                Ultrascalar1Layout(big, 32, bandwidth=bandwidth_power(exponent)).side_length()
                / Ultrascalar1Layout(small, 32, bandwidth=bandwidth_power(exponent)).side_length()
            )
            closed = x_closed_form(big, 32, exponent) / x_closed_form(small, 32, exponent)
            assert numeric == pytest.approx(closed, rel=0.25)

    def test_hybrid_recurrence_base(self):
        # U(C) is one cluster, and its root-to-leaf wire just crosses it
        layout = HybridLayout(32, 32, 32)
        assert layout.side_length() == layout.cluster_side
        assert layout.root_to_leaf_wire() == layout.cluster_side

    def test_u_closed_form_minimized_at_L(self):
        values = {c: u_closed_form(4096, c, 32) for c in (4, 8, 16, 32, 64, 128, 256)}
        best = min(values, key=values.get)
        assert best == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            u_closed_form(4, 8, 32)


class TestFigure11:
    def test_full_coverage(self):
        # 3 regimes x 4 processors x 4 quantities
        assert len(FIGURE11) == 3 * 4 * 4

    def test_lookup_errors_on_missing(self):
        with pytest.raises(KeyError):
            lookup(Regime.CASE1, "nonexistent", "area")

    def test_gate_delays_match_paper(self):
        n, L = 1024, 32
        assert lookup(Regime.CASE1, "ultrascalar1", "gate_delay").evaluate(n, L, 0) == math.log2(n)
        assert lookup(Regime.CASE1, "ultrascalar2-linear", "gate_delay").evaluate(n, L, 0) == n + L
        assert lookup(Regime.CASE1, "hybrid", "gate_delay").evaluate(n, L, 0) == L + math.log2(n)

    def test_case1_wire_delays(self):
        n, L = 4096, 32
        assert lookup(Regime.CASE1, "ultrascalar1", "wire_delay").evaluate(n, L, 0) == 64 * 32
        assert lookup(Regime.CASE1, "hybrid", "wire_delay").evaluate(n, L, 0) == math.sqrt(n * L)

    def test_case3_includes_memory_term(self):
        n, L, M = 4096, 32, 10_000
        us1 = lookup(Regime.CASE3, "ultrascalar1", "wire_delay").evaluate(n, L, M)
        assert us1 == math.sqrt(n) * L + M

    def test_hybrid_dominates_all_quantities(self):
        L = 32
        for n in (1 << 16, 1 << 18):
            for regime in Regime:
                m = {Regime.CASE1: 1, Regime.CASE2: n**0.5, Regime.CASE3: n**0.75}[regime]
                for quantity in ("wire_delay", "total_delay", "area"):
                    hybrid = lookup(regime, "hybrid", quantity).evaluate(n, L, m)
                    us1 = lookup(regime, "ultrascalar1", quantity).evaluate(n, L, m)
                    us2 = lookup(regime, "ultrascalar2-linear", quantity).evaluate(n, L, m)
                    assert hybrid <= min(us1, us2) * 1.001, (n, regime, quantity)

    def test_table_renders_formulas(self):
        text = figure11_table(Regime.CASE2).render()
        assert "Θ(√n (L + log n))" in text
        assert "Θ(n L)" in text


class TestFitting:
    def test_recovers_power_law(self):
        xs = [10, 100, 1000, 10000]
        ys = [3 * x**1.7 for x in xs]
        fit = fit_loglog(xs, ys)
        assert fit.exponent == pytest.approx(1.7, abs=1e-9)
        assert fit.scale == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_loglog([1, 2, 4], [2, 4, 8])
        assert fit.predict(8) == pytest.approx(16.0)

    def test_fit_exponent_shortcut(self):
        assert fit_exponent([1, 10], [5, 50]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog([1], [1])
        with pytest.raises(ValueError):
            fit_loglog([1, 2], [1])
        with pytest.raises(ValueError):
            fit_loglog([0, 1], [1, 2])
        with pytest.raises(ValueError):
            fit_loglog([2, 2], [1, 2])

    def test_matches_numpy_polyfit(self):
        np = pytest.importorskip("numpy")
        xs = [16, 64, 256, 1024, 4096]
        for ys in ([3 * x**0.5 + 7 for x in xs], [x * math.log2(x) for x in xs]):
            slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
            fit = fit_loglog(xs, ys)
            assert fit.exponent == pytest.approx(slope, rel=1e-12)
            assert fit.scale == pytest.approx(math.exp(intercept), rel=1e-12)


class TestCrossover:
    def test_crossover_exists_and_scales(self):
        n8 = find_crossover(8)
        n32 = find_crossover(32)
        assert n8 is not None and n32 is not None
        # n* = Theta(L^2): multiplying L by 4 multiplies n* by ~16
        assert n32 / n8 == pytest.approx(16.0, rel=0.1)

    def test_ratio_decreases_with_n(self):
        ratios = [wire_delay_ratio(n, 32) for n in (64, 1024, 16384)]
        assert ratios == sorted(ratios, reverse=True)

    def test_hybrid_advantage_positive_at_scale(self):
        assert hybrid_advantage(16384, 32) > 1.0


class TestCluster:
    def test_analytic_optimum_is_L(self):
        assert analytic_optimal_cluster(64) == 64.0
        with pytest.raises(ValueError):
            analytic_optimal_cluster(0)

    def test_closed_form_sweep_u_shaped(self):
        sweep = closed_form_sweep(4096, 32)
        best = min(sweep, key=sweep.get)
        assert sweep[best] < sweep[1]
        assert sweep[best] < sweep[4096]

    def test_cluster_is_theta_L(self):
        # the layout model's best power-of-two C is within 4x of L
        best, _ = optimal_cluster_size(4096, 32)
        assert 32 / 4 <= best <= 32 * 4


class TestThreeD:
    def test_bounds_lookup(self):
        bound = lookup_3d("ultrascalar1", "volume")
        assert bound.evaluate(8, 4, 0) == 8 * 4**1.5
        with pytest.raises(KeyError):
            lookup_3d("nope", "volume")

    def test_table_renders(self):
        assert "Θ(n L^(3/2))" in three_d_table().render()

    def test_improvement_is_L_to_quarter(self):
        assert volume_improvement_2d_to_3d(100, 16) == pytest.approx(16**0.25)
        with pytest.raises(ValueError):
            volume_improvement_2d_to_3d(0, 4)
