"""Unit tests for the VLSI layout models."""

import pytest

from repro.circuits.cspp import build_copy_cspp
from repro.network.fattree import bandwidth_linear, bandwidth_power
from repro.vlsi.cells import station_cell
from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import Ultrascalar1Layout, zero_bandwidth
from repro.vlsi.hybrid_layout import HybridLayout, optimal_cluster_size
from repro.vlsi.tech import tracks_to_cm
from repro.vlsi.wires import wire_delay


class TestTechnology:
    def test_track_conversion(self):
        assert tracks_to_cm(25_000) == pytest.approx(10.0)


def prefix_node_gates_per_wire(value_bits: int = 32) -> float:
    """Gates per datapath wire in one H-tree prefix node, measured.

    Builds a real CSPP tree for one register of ``value_bits`` and divides
    its gate count by (tree nodes x wires): the circuit-level check on the
    technology model's ``prefix_node_pitch``.
    """
    n = 16
    tree = build_copy_cspp(n, width=value_bits + 1)
    internal_nodes = n - 1  # binary tree over n leaves
    return tree.gate_count / (internal_nodes * (value_bits + 1))


class TestPrefixNodeCell:
    def test_measured_gate_density(self):
        # the CSPP's up+down sweeps cost ~2 mux/or gates per wire per
        # node — the circuit-level grounding for prefix_node_pitch
        density = prefix_node_gates_per_wire(8)
        assert 1.5 <= density <= 3.5

    def test_density_independent_of_width(self):
        # per-wire cost is flat in the payload width (bits are independent)
        narrow = prefix_node_gates_per_wire(4)
        wide = prefix_node_gates_per_wire(16)
        assert abs(narrow - wide) < 0.5


class TestStationCell:
    def test_full_interface_dominated_by_wires_for_big_L(self):
        cell = station_cell(32, 32, full_register_interface=True)
        slim = station_cell(32, 32, full_register_interface=False)
        assert cell.side_tracks > slim.side_tracks

    def test_area_grows_with_word_width(self):
        assert (
            station_cell(32, 64, full_register_interface=False).side_tracks
            > station_cell(32, 16, full_register_interface=False).side_tracks
        )

    def test_area_grows_with_register_count(self):
        assert (
            station_cell(64, 32).side_tracks > station_cell(16, 32).side_tracks
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            station_cell(0, 32)
        with pytest.raises(ValueError):
            station_cell(32, 0)


class TestUltrascalar1Layout:
    def test_side_solves_recurrence(self):
        layout = Ultrascalar1Layout(64, 32)
        lhs = layout.side_length(64)
        rhs = layout.switch_block_side(64) + 2 * layout.side_length(16)
        assert lhs == pytest.approx(rhs)

    def test_side_closed_form_structure(self):
        # X(n) = sqrt(n) s0 + (sqrt(n)-1) B for M = 0
        layout = Ultrascalar1Layout(256, 32)
        s0 = layout.station.side_tracks
        B = layout.switch_block_side(4)
        assert layout.side_length(256) == pytest.approx(16 * s0 + 15 * B)

    def test_wire_is_theta_of_side(self):
        for n in (16, 256, 4096):
            layout = Ultrascalar1Layout(n, 32)
            ratio = layout.root_to_leaf_wire() / layout.side_length()
            assert 0.3 < ratio < 2.0

    def test_sqrt_growth_without_memory(self):
        small = Ultrascalar1Layout(256, 32).side_length()
        large = Ultrascalar1Layout(4096, 32).side_length()
        assert large / small == pytest.approx(4.0, rel=0.15)

    def test_memory_bandwidth_inflates_side(self):
        lean = Ultrascalar1Layout(4096, 32, bandwidth=zero_bandwidth)
        fat = Ultrascalar1Layout(4096, 32, bandwidth=bandwidth_linear(1.0))
        assert fat.side_length() > lean.side_length() * 2

    def test_non_power_of_4_rounds_up(self):
        assert Ultrascalar1Layout(60, 32).side_length() == Ultrascalar1Layout(64, 32).side_length()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Ultrascalar1Layout(0, 32)

    def test_paper_calibration_point(self):
        """The Figure 12 anchor: 64 stations, L=32x32b -> ~7 cm, ~13k/m2."""
        layout = Ultrascalar1Layout(64, 32, 32)
        summary = layout.summary()
        assert 6.0 < summary["side_cm"] < 8.0
        assert 11_000 < summary["stations_per_m2"] < 16_000


class TestUltrascalar2Layout:
    def test_linear_growth_in_n(self):
        sides = [Ultrascalar2Layout(n, 32).side_length() for n in (1024, 2048, 4096)]
        assert sides[1] / sides[0] == pytest.approx(2.0, rel=0.2)
        assert sides[2] / sides[1] == pytest.approx(2.0, rel=0.2)

    def test_tree_variant_larger_than_linear(self):
        for n in (256, 1024, 4096):
            linear = Ultrascalar2Layout(n, 32, variant="linear").side_length()
            tree = Ultrascalar2Layout(n, 32, variant="tree").side_length()
            mixed = Ultrascalar2Layout(n, 32, variant="mixed").side_length()
            assert mixed == linear  # the mixed strategy keeps the linear area
            assert tree > linear

    def test_gate_delay_ordering(self):
        # tree < mixed < linear gate delay at the same n
        for n in (256, 1024, 4096):
            linear = Ultrascalar2Layout(n, 32, variant="linear").gate_delay()
            mixed = Ultrascalar2Layout(n, 32, variant="mixed").gate_delay()
            tree = Ultrascalar2Layout(n, 32, variant="tree").gate_delay()
            assert tree < mixed < linear

    def test_wraparound_costs_about_twice_the_area(self):
        # the paper: wrap-around "appears to cost nearly a factor of two in area"
        plain = Ultrascalar2Layout(256, 32).side_length() ** 2
        wrapped = Ultrascalar2Layout(256, 32, wraparound=True).side_length() ** 2
        assert 1.8 < wrapped / plain < 2.2

    def test_rows_and_cols(self):
        layout = Ultrascalar2Layout(8, 4)
        assert layout.rows == 12       # n + L
        assert layout.cols == 20       # 2n + L

    def test_validation(self):
        with pytest.raises(ValueError):
            Ultrascalar2Layout(0, 32)
        with pytest.raises(ValueError):
            Ultrascalar2Layout(8, 32, variant="bogus")


class TestHybridLayout:
    def test_cluster_side_matches_us2(self):
        hybrid = HybridLayout(128, 32, 32)
        cluster = Ultrascalar2Layout(32, 32)
        assert hybrid.cluster_side == cluster.side_length()

    def test_recurrence_structure(self):
        hybrid = HybridLayout(512, 32, 32)  # 16 clusters
        lhs = hybrid.side_length(16)
        rhs = hybrid.switch_block_side(512) + 2 * hybrid.side_length(4)
        assert lhs == pytest.approx(rhs)

    def test_beats_us1_at_scale(self):
        us1 = Ultrascalar1Layout(1024, 32)
        hybrid = HybridLayout(1024, 32, 32)
        assert hybrid.side_length() < us1.side_length()
        assert hybrid.critical_wire < us1.critical_wire

    def test_sqrt_nl_growth(self):
        small = HybridLayout(1024, 32, 32).side_length()
        large = HybridLayout(16384, 32, 32).side_length()
        assert large / small == pytest.approx(4.0, rel=0.25)

    def test_memory_bandwidth_term(self):
        lean = HybridLayout(1024, 32, 32)
        fat = HybridLayout(1024, 32, 32, bandwidth=bandwidth_power(1.0))
        assert fat.side_length() > lean.side_length()

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridLayout(100, 32)  # cluster must divide n

        with pytest.raises(ValueError):
            HybridLayout(0, 1)

    def test_optimal_cluster_size_sweep(self):
        best, sides = optimal_cluster_size(1024, 32)
        assert best in sides
        assert sides[best] == min(sides.values())
        assert 8 <= best <= 128  # Θ(L) neighbourhood for L=32

    def test_optimal_cluster_validation(self):
        with pytest.raises(ValueError):
            optimal_cluster_size(0, 32)


class TestWireDelay:
    def test_linear_in_length(self):
        assert wire_delay(200) == pytest.approx(2 * wire_delay(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            wire_delay(-1)


#: exact reprs of (side_length(), root_to_leaf_wire(), critical_wire,
#: stations_per_m2); the golden reports print 2-3 digits, so these catch
#: a reordered float sum that the reports would not
LAYOUT_FLOATS = [
    (lambda: Ultrascalar1Layout(64, 32),
     ("17160.0", "18150.0", "36300.0", "13583.92966784575")),
    (lambda: Ultrascalar1Layout(4096, 32, bandwidth=bandwidth_linear(1.0)),
     ("469080.0", "581250.0", "1162500.0", "1163.445736225517")),
    (lambda: HybridLayout(128, 32, 32),
     ("7171.337205734261", "7831.33720573426", "15662.67441146852",
      "155557.05010083594")),
    (lambda: HybridLayout(1024, 32, 32, bandwidth=bandwidth_power(1.0)),
     ("176005.34882293706", "231745.34882293706", "463490.6976458741",
      "2065.990125396494")),
]


@pytest.mark.parametrize("make,expected", LAYOUT_FLOATS,
                         ids=["us1-64", "us1-4096-linear", "hybrid-128", "hybrid-1024-power"])
def test_layout_floats_are_pinned(make, expected):
    layout = make()
    actual = (layout.side_length(), layout.root_to_leaf_wire(),
              layout.critical_wire, layout.stations_per_m2)
    assert tuple(map(repr, actual)) == expected
