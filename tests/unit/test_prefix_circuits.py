"""Unit tests for segmented scans, CSPP trees, mux rings, and fan-out trees."""

import pytest

from repro.analysis.fitting import fit_exponent
from repro.circuits.cspp import (
    CsppTree,
    build_copy_cspp,
    cyclic_segmented_copy,
    cyclic_segmented_scan,
)
from repro.circuits.fanout import FanoutShape
from repro.circuits.mux_ring import MuxRing
from repro.circuits.netlist import Netlist
from repro.circuits.prefix import AndOp
from tests.oracles import segmented_scan, topological_depth


def cyclic_and(conditions, segments):
    """The sequencing CSPP's reference (Figure 5): "all earlier stations
    meet the condition"."""
    return cyclic_segmented_scan([bool(c) for c in conditions], segments, lambda a, b: a and b)


class TestSegmentedScanSemantics:
    def test_no_segments_accumulates_from_initial(self):
        ys = segmented_scan([1, 2, 3], [False] * 3, lambda a, b: a + b, initial=10)
        assert ys == [10, 11, 13]

    def test_segment_restarts_scan(self):
        ys = segmented_scan([1, 2, 3, 4], [False, True, False, False], lambda a, b: a + b, 0)
        assert ys == [0, 1, 2, 5]

    def test_copy_operator_gives_nearest_writer(self):
        ys = segmented_scan(
            ["a", "b", "c", "d"], [True, False, True, False], lambda a, b: a, "init"
        )
        assert ys == ["init", "a", "a", "c"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segmented_scan([1], [True, False], lambda a, b: a, 0)

    def test_paper_figure5_and_example(self):
        # Figure 5: station 6 oldest (segment); 6,7,0,1,3 met the condition;
        # output high to stations 7,0,1,2.
        conditions = [True, True, False, True, False, False, True, True]
        segments = [False] * 8
        segments[6] = True
        out = cyclic_and(conditions, segments)
        high = {i for i in range(8) if out[i]}
        assert high == {7, 0, 1, 2}


class TestCyclicScan:
    def test_requires_a_segment(self):
        with pytest.raises(ValueError):
            cyclic_segmented_copy([1, 2], [False, False])

    def test_wraps_around(self):
        # only station 2 writes; everyone receives its value
        ys = cyclic_segmented_copy([10, 20, 30, 40], [False, False, True, False])
        assert ys == [30, 30, 30, 30]

    def test_multiple_writers(self):
        ys = cyclic_segmented_copy([10, 20, 30, 40], [True, False, True, False])
        assert ys == [30, 10, 10, 30]

    def test_all_segments_shift_by_one(self):
        ys = cyclic_segmented_copy([1, 2, 3, 4], [True] * 4)
        assert ys == [4, 1, 2, 3]

    def test_generic_operator(self):
        # single segment at index 1: every scan starts at x[1]=2 and wraps
        ys = cyclic_segmented_scan([1, 2, 3, 4], [False, True, False, False], lambda a, b: a + b)
        assert ys == [2 + 3 + 4, 2 + 3 + 4 + 1, 2, 2 + 3]

    def test_single_position(self):
        assert cyclic_segmented_copy([7], [True]) == [7]


class TestNearestWriter:
    """The copy scan over the positions' own indices names each position's
    nearest preceding writer (``None`` before the first, noncyclically)."""

    def test_noncyclic(self):
        ys = segmented_scan(range(4), [False, True, False, True], lambda a, b: a, None)
        assert ys == [None, None, 1, 1]

    def test_cyclic(self):
        assert cyclic_segmented_copy(range(4), [False, True, False, True]) == [3, 3, 1, 1]

    def test_cyclic_single_writer(self):
        assert cyclic_segmented_copy(range(3), [False, False, True]) == [2, 2, 2]

    def test_cyclic_requires_writer(self):
        with pytest.raises(ValueError):
            cyclic_segmented_copy(range(2), [False, False])


class TestCsppTree:
    def test_matches_reference_copy(self):
        tree = build_copy_cspp(8, width=4)
        xs = [3, 9, 12, 5, 7, 1, 8, 2]
        segs = [False, True, False, False, True, False, False, False]
        assert tree.evaluate(xs, segs) == cyclic_segmented_copy(xs, segs)

    def test_matches_reference_and(self):
        tree = CsppTree(8, op=AndOp(), name="cspp_and")  # Figure 5's sequencing circuit
        cs = [True, True, False, True, True, True, True, False]
        segs = [False, False, False, False, False, True, False, False]
        got = [bool(v) for v in tree.evaluate([int(c) for c in cs], segs)]
        assert got == cyclic_and(cs, segs)

    def test_non_power_of_two(self):
        tree = build_copy_cspp(5, width=2)
        xs = [1, 2, 3, 0, 1]
        segs = [False, False, True, False, True]
        assert tree.evaluate(xs, segs) == cyclic_segmented_copy(xs, segs)

    def test_radix_four_matches_binary(self):
        xs = [5, 1, 2, 6, 7, 0, 4, 3]
        segs = [True, False, False, True, False, False, True, False]
        binary = build_copy_cspp(8, width=3, radix=2)
        quad = build_copy_cspp(8, width=3, radix=4)
        assert binary.evaluate(xs, segs) == quad.evaluate(xs, segs)

    def test_requires_segment_bit(self):
        tree = build_copy_cspp(4)
        with pytest.raises(ValueError):
            tree.evaluate([0] * 4, [False] * 4)

    def test_input_length_checked(self):
        tree = build_copy_cspp(4)
        with pytest.raises(ValueError):
            tree.evaluate([0] * 3, [True] * 3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CsppTree(0)
        with pytest.raises(ValueError):
            CsppTree(4, radix=1)

    def test_netlist_is_acyclic_dag(self):
        # The "cycle" is semantic (ring order); the tree netlist is a DAG.
        tree = build_copy_cspp(8)
        assert topological_depth(tree.netlist) == 6  # raises on a cyclic netlist

    def test_settle_time_logarithmic(self):
        times = []
        for n in (8, 16, 32, 64):
            tree = build_copy_cspp(n)
            times.append(tree.settle_time([1] * n, [True] + [False] * (n - 1)))
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(d <= 3 for d in diffs), times

    def test_radix_four_costs_a_constant_factor(self):
        sizes = [16, 64, 256]
        settle = {
            radix: [
                build_copy_cspp(n, 1, radix=radix).settle_time([1] * n, [True] + [False] * (n - 1))
                for n in sizes
            ]
            for radix in (2, 4)
        }
        assert settle == {2: [7, 11, 15], 4: [9, 15, 21]}  # EXPERIMENTS.md's figures
        # serial combining inside each 4-ary node: slower, but still logarithmic
        for binary, quad in zip(settle[2], settle[4]):
            assert binary <= quad <= 2 * binary
        assert fit_exponent(sizes, settle[2]) < 0.6
        assert fit_exponent(sizes, settle[4]) < 0.6


class TestMuxRing:
    def test_matches_reference(self):
        ring = MuxRing(8, width=4)
        xs = [3, 9, 12, 5, 7, 1, 8, 2]
        segs = [False, True, False, False, True, False, False, False]
        assert ring.evaluate(xs, segs) == cyclic_segmented_copy(xs, segs)

    def test_is_cyclic_netlist(self):
        with pytest.raises(ValueError, match="cyclic"):
            topological_depth(MuxRing(4).netlist)

    def test_settle_time_linear(self):
        times = []
        for n in (8, 16, 32):
            ring = MuxRing(n)
            times.append(ring.settle_time([1] * n, [True] + [False] * (n - 1)))
        assert times == [8, 16, 32]

    def test_requires_modified_bit(self):
        ring = MuxRing(4)
        with pytest.raises(ValueError):
            ring.evaluate([0] * 4, [False] * 4)

    def test_gate_count(self):
        assert MuxRing(8, width=4).gate_count == 32  # one mux per station per bit


class TestFanoutTree:
    def test_single_copy_is_source(self):
        nl = Netlist()
        src = nl.add_input("s")
        tree = FanoutShape.derive(1).build(nl, src)
        assert tree.leaves == (src,)
        assert tree.depth == 0

    @pytest.mark.parametrize("copies", [2, 3, 7, 8, 17, 64])
    def test_leaf_count_and_depth(self, copies):
        import math

        nl = Netlist()
        src = nl.add_input("s")
        tree = FanoutShape.derive(copies).build(nl, src)
        assert len(tree.leaves) == copies
        assert tree.depth == math.ceil(math.log2(copies))

    def test_all_leaves_carry_source_value(self):
        nl = Netlist()
        src = nl.add_input("s")
        tree = FanoutShape.derive(13).build(nl, src)
        result = nl.simulate({src: True})
        assert all(result.value_of(leaf) for leaf in tree.leaves)

    def test_radix_four_is_shallower(self):
        nl = Netlist()
        src = nl.add_input("s")
        assert FanoutShape.derive(64, radix=4).build(nl, src).depth == 3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FanoutShape.derive(0)
        with pytest.raises(ValueError):
            FanoutShape.derive(4, radix=1)
