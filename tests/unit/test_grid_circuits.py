"""Unit tests for the Ultrascalar II routing network (Figures 7 and 8)."""

import pytest

from repro.circuits.comparator import ComparatorPlan, register_number_bits
from repro.circuits.grid import (
    GridNetwork,
    RegisterBinding,
    TreeGridNetwork,
    route_arguments,
)
from repro.circuits.netlist import GateRun, Netlist, bus
from tests.oracles import topological_depth


def planned(netlist, width, method, *args):
    """Plan one comparator as the grids do, add its run, return its match net."""
    run = GateRun(netlist)
    getattr(ComparatorPlan(width), method)(run, *args)
    return run.add()[-1]


class TestRegisterNumberBits:
    @pytest.mark.parametrize("L,bits", [(1, 1), (2, 1), (3, 2), (4, 2), (32, 5), (33, 6), (64, 6)])
    def test_widths(self, L, bits):
        assert register_number_bits(L) == bits

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            register_number_bits(0)


class TestComparators:
    def test_equality_comparator(self):
        nl = Netlist()
        a = bus(nl, "a", 5)
        b = bus(nl, "b", 5)
        out = planned(nl, 5, "equal", a, b)
        for x, y in [(0, 0), (17, 17), (17, 16), (31, 30), (5, 21)]:
            assignment = {}
            for i in range(5):
                assignment[a[i]] = bool((x >> i) & 1)
                assignment[b[i]] = bool((y >> i) & 1)
            assert nl.simulate(assignment).value_of(out) == (x == y)

    def test_comparator_depth_is_loglog(self):
        # 5-bit comparator: XNOR (1) + AND tree (ceil(log2 5) = 3) = 4
        nl = Netlist()
        planned(nl, 5, "equal", bus(nl, "a", 5), bus(nl, "b", 5))
        assert topological_depth(nl) == 4

    def test_constant_match(self):
        nl = Netlist()
        a = bus(nl, "a", 4)
        out = planned(nl, 4, "match", a, 9)
        for x in range(16):
            assignment = {a[i]: bool((x >> i) & 1) for i in range(4)}
            assert nl.simulate(assignment).value_of(out) == (x == 9)

    def test_mismatched_widths_rejected(self):
        nl = Netlist()
        with pytest.raises(ValueError):
            planned(nl, 3, "equal", bus(nl, "a", 3), bus(nl, "b", 4))

    def test_empty_bus_rejected(self):
        with pytest.raises(ValueError):
            ComparatorPlan(0)


class TestRouteArguments:
    def test_initial_file_serves_unwritten_registers(self):
        routed = route_arguments(
            4, [(10, True), (20, True), (30, True), (40, True)], [None], [[2]]
        )
        assert routed.arguments == [[(30, True)]]
        assert routed.outgoing == [(10, True), (20, True), (30, True), (40, True)]

    def test_nearest_preceding_writer_wins(self):
        # paper Figure 7 narrative: station 3 reads R2; station 0's unfinished
        # write is ignored in favour of station 2's finished one.
        writes = [
            RegisterBinding(2, 0, False),   # station 0 writes R2, not ready
            RegisterBinding(1, 5, True),    # station 1 writes R1
            RegisterBinding(2, 9, True),    # station 2 writes R2, ready (value 9)
            None,
        ]
        reads = [[0, 0], [0, 0], [0, 0], [2, 1]]
        routed = route_arguments(4, [(0, True)] * 4, writes, reads)
        assert routed.arguments[3][0] == (9, True)   # nearest R2 writer is station 2
        assert routed.arguments[3][1] == (5, True)   # R1 from station 1

    def test_station_does_not_see_own_write(self):
        writes = [RegisterBinding(0, 99, True)]
        routed = route_arguments(2, [(1, True), (2, True)], writes, [[0]])
        assert routed.arguments[0][0] == (1, True)

    def test_outgoing_reflects_last_writer(self):
        writes = [RegisterBinding(0, 5, True), RegisterBinding(0, 7, False)]
        routed = route_arguments(2, [(1, True), (2, True)], writes, [[], []])
        assert routed.outgoing[0] == (7, False)
        assert routed.outgoing[1] == (2, True)

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            route_arguments(2, [(0, True)], [None], [[0]])
        with pytest.raises(ValueError):
            route_arguments(2, [(0, True), (0, True)], [None], [[0], [0]])
        with pytest.raises(ValueError):
            route_arguments(2, [(0, True), (0, True)], [None], [[5]])
        with pytest.raises(ValueError):
            route_arguments(
                2, [(0, True), (0, True)], [RegisterBinding(9, 0, True)], [[0]]
            )


@pytest.mark.parametrize("network_cls", [GridNetwork, TreeGridNetwork])
class TestGridNetlists:
    def test_matches_behavioural_reference(self, network_cls):
        import random

        rng = random.Random(42)
        n, L, w = 4, 4, 3
        network = network_cls(n, L, value_bits=w)
        for _ in range(4):
            initial = [(rng.randrange(8), bool(rng.getrandbits(1))) for _ in range(L)]
            writes = [
                None
                if rng.random() < 0.3
                else RegisterBinding(rng.randrange(L), rng.randrange(8), bool(rng.getrandbits(1)))
                for _ in range(n)
            ]
            reads = [[rng.randrange(L), rng.randrange(L)] for _ in range(n)]
            assert network.evaluate(initial, writes, reads) == route_arguments(
                L, initial, writes, reads
            )

    def test_figure7_configuration(self, network_cls):
        # Figure 7: four stations, four logical registers.
        network = network_cls(4, 4, value_bits=4)
        initial = [(0, True), (1, True), (2, True), (3, True)]
        writes = [
            RegisterBinding(2, 0, False),
            RegisterBinding(1, 4, True),
            RegisterBinding(2, 9, True),
            RegisterBinding(3, 0, False),
        ]
        reads = [[0, 1], [0, 2], [1, 3], [2, 1]]
        routed = network.evaluate(initial, writes, reads)
        # station 3's R2 argument comes from station 2 (value 9, ready)
        assert routed.arguments[3][0] == (9, True)
        # station 1's R2 argument comes from station 0 (not ready)
        assert routed.arguments[1][1] == (0, False)
        # outgoing R2 is station 2's value; R3 is station 3's unfinished write
        assert routed.outgoing[2] == (9, True)
        assert routed.outgoing[3] == (0, False)

    def test_input_shape_validation(self, network_cls):
        network = network_cls(2, 2)
        with pytest.raises(ValueError):
            network.evaluate([(0, True)], [None, None], [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            network.evaluate([(0, True), (0, True)], [None, None], [[0], [0]])

    def test_rejects_zero_stations(self, network_cls):
        with pytest.raises(ValueError):
            network_cls(0, 4)


class TestGridScaling:
    def test_linear_grid_settle_grows_linearly(self):
        times = []
        for n in (4, 8, 16):
            grid = GridNetwork(n, n)
            initial = [(1, True)] * n
            times.append(grid.settle_time(initial, [None] * n, [[0, 0]] * n))
        # roughly 2(n+L) growth: doubling n roughly doubles the settle time
        assert times[1] > times[0] * 1.6
        assert times[2] > times[1] * 1.6

    def test_tree_grid_settle_grows_slowly(self):
        times = []
        for n in (4, 8, 16):
            grid = TreeGridNetwork(n, n)
            initial = [(1, True)] * n
            times.append(grid.settle_time(initial, [None] * n, [[0, 0]] * n))
        assert times[2] - times[0] <= 6  # logarithmic growth
