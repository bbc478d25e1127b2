"""Unit tests for the netlist framework and unit-delay simulator."""

import pytest

from repro.circuits.netlist import (
    GateKind,
    GateRun,
    Netlist,
    assign_bus,
    bus,
    bus_value,
    reduction_pairs,
)
from tests.oracles import net_readers, topological_depth


def reduce_tree(netlist, kind, nets):
    """A balanced binary reduction tree of *kind* gates over *nets*, as one
    run of the pairs :func:`reduction_pairs` plans."""
    pairs, root = reduction_pairs(nets, netlist.net_count)
    return netlist.add_gates(kind, pairs)[-1] if pairs else root


class TestConstruction:
    def test_add_input_and_gate(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        out = nl.add_gate(GateKind.AND, a, b)
        assert nl._out == [out]
        assert nl.inputs == [a, b]
        assert nl.gate_count == 1
        assert net_readers(nl)[a] == net_readers(nl)[b] == [0]
        assert net_readers(nl)[out] == []
        assert nl.name_of(out) == "and0"

    def test_arity_enforced(self):
        nl = Netlist()
        a = nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_gate(GateKind.NOT, a, a)
        with pytest.raises(ValueError):
            nl.add_gate(GateKind.MUX, a, a)

    def test_constants_are_cached(self):
        nl = Netlist()
        assert nl.constant(True) is nl.constant(True)
        assert nl.constant(True) is not nl.constant(False)

    def test_reduce_tree_depth_is_logarithmic(self):
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(64)]
        reduce_tree(nl, GateKind.AND, nets)
        assert topological_depth(nl) == 6


class TestBulkPath:
    @staticmethod
    def _arrays(nl):
        return (nl.gate_count, nl.net_count, list(nl._kind), list(nl._ins), list(nl._out))

    def test_run_appends_in_order(self):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        first = nl.net_count
        outs = nl.add_gates(
            [GateKind.AND, GateKind.NOT, GateKind.MUX],
            [(a, b), (first,), (a, first, first + 1)],
        )
        assert outs == [first, first + 1, first + 2]
        assert all(out is stored for out, stored in zip(outs, nl._out))
        assert nl.name_of(outs[1]) == "not1"
        result = nl.simulate({a: True, b: False})
        assert [result.value_of(out) for out in outs] == [False, True, False]  # a ? and : not

    @pytest.mark.parametrize(
        "kind,inputs",
        [
            (GateKind.AND, [(0, 1), (0,), (1, 0)]),                  # one short tuple
            (GateKind.MUX, [(0, 1, 0), (0, 1)]),
            ([GateKind.BUF, GateKind.NOT], [(0,), (0, 1)]),         # per-gate kinds
            ([GateKind.BUF, GateKind.BUF], [(0,)]),                 # kinds != tuples
        ],
    )
    def test_bad_run_raises_and_adds_nothing(self, kind, inputs):
        nl = Netlist()
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate(GateKind.XOR, 0, 1)
        before = self._arrays(nl)
        with pytest.raises(ValueError):
            nl.add_gates(kind, inputs)
        assert self._arrays(nl) == before

    def test_gate_run_numbers_planned_gates(self):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        run = GateRun(nl)
        x = run.plan([GateKind.XOR], [(a, b)])
        y = run.plan([GateKind.NOT, GateKind.AND], [(x,), (x, a)])
        assert (x, y) == (2, 4)
        assert run.add() == [2, 3, 4]
        assert nl.simulate({a: True, b: False}).value_of(y) is True

    def test_gate_run_rejects_a_netlist_that_grew(self):
        nl = Netlist()
        a = nl.add_input("a")
        run = GateRun(nl)
        run.plan([GateKind.NOT], [(a,)])
        nl.add_input("late")
        with pytest.raises(RuntimeError, match="grew"):
            run.add()
        assert nl.gate_count == 0


class TestGateSemantics:
    @pytest.mark.parametrize(
        "kind,inputs,expected",
        [
            (GateKind.AND, (1, 1), 1),
            (GateKind.AND, (1, 0), 0),
            (GateKind.OR, (0, 0), 0),
            (GateKind.OR, (0, 1), 1),
            (GateKind.XOR, (1, 1), 0),
            (GateKind.XOR, (1, 0), 1),
            (GateKind.XNOR, (1, 1), 1),
            (GateKind.NAND, (1, 1), 0),
            (GateKind.NOR, (0, 0), 1),
        ],
    )
    def test_two_input_gates(self, kind, inputs, expected):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        out = nl.add_gate(kind, a, b)
        result = nl.simulate({a: bool(inputs[0]), b: bool(inputs[1])})
        assert result.value_of(out) == bool(expected)

    def test_not_and_buf(self):
        nl = Netlist()
        a = nl.add_input("a")
        inv = nl.add_gate(GateKind.NOT, a)
        buf = nl.add_gate(GateKind.BUF, a)
        result = nl.simulate({a: True})
        assert result.value_of(inv) is False
        assert result.value_of(buf) is True

    @pytest.mark.parametrize("sel,a,b,expected", [(1, 1, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1)])
    def test_mux(self, sel, a, b, expected):
        nl = Netlist()
        s, x, y = nl.add_input("s"), nl.add_input("x"), nl.add_input("y")
        out = nl.mux(s, x, y)
        result = nl.simulate({s: bool(sel), x: bool(a), y: bool(b)})
        assert result.value_of(out) == bool(expected)

    def test_wide_and(self):
        nl = Netlist()
        ins = [nl.add_input(f"i{k}") for k in range(5)]
        out = nl.add_gate(GateKind.AND, *ins)
        assert nl.simulate({net: True for net in ins}).value_of(out) is True
        assignment = {net: True for net in ins}
        assignment[ins[3]] = False
        assert nl.simulate(assignment).value_of(out) is False


class TestTiming:
    def test_chain_settle_time_is_linear(self):
        nl = Netlist()
        net = nl.add_input("a")
        for _ in range(10):
            net = nl.add_gate(GateKind.BUF, net)
        result = nl.simulate({nl.inputs[0]: True})
        assert result.settle_time == 10

    def test_tree_settle_time_is_logarithmic(self):
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(32)]
        reduce_tree(nl, GateKind.OR, nets)
        result = nl.simulate({nets[5]: True})
        assert result.settle_time == 5

    def test_no_toggles_settles_at_zero(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_gate(GateKind.BUF, a)
        assert nl.simulate({a: False}).settle_time == 0

    def test_oscillator_detected(self):
        nl = Netlist()
        a = nl.add_input("enable")
        # ring oscillator: out = NOT(AND(enable, out))
        feedback = nl.add_input("fb_placeholder")
        inner = nl.add_gate(GateKind.AND, a, feedback)
        out = nl.add_gate(GateKind.NOT, inner)
        nl.tie(feedback, out)
        with pytest.raises(RuntimeError, match="did not settle"):
            nl.simulate({a: True})


class TestTie:
    def test_tie_redirects_readers_and_drops_the_placeholder(self):
        nl = Netlist()
        a = nl.add_input("a")
        placeholder = nl.add_input("fb")
        first = nl.add_gate(GateKind.AND, a, placeholder)
        second = nl.add_gate(GateKind.BUF, placeholder)
        source = nl.add_gate(GateKind.NOT, a)
        nl.simulate({a: False})  # fill the fan-out cache; tie must invalidate it
        nl.tie(placeholder, source)
        assert nl.inputs == [a]
        assert net_readers(nl)[placeholder] == []
        assert net_readers(nl)[source] == [0, 1]
        result = nl.simulate({a: False})
        assert result.value_of(first) is False
        assert result.value_of(second) is True

    def test_tie_rejects_non_inputs(self):
        nl = Netlist()
        a = nl.add_input("a")
        placeholder = nl.add_input("fb")
        out = nl.add_gate(GateKind.BUF, a)
        with pytest.raises(ValueError, match="not a primary input"):
            nl.tie(out, a)
        nl.tie(placeholder, out)
        with pytest.raises(ValueError, match="not a primary input"):
            nl.tie(placeholder, out)

    def test_tie_rejects_constants(self):
        nl = Netlist()
        one = nl.constant(True)
        b = nl.add_input("b")
        nl.add_gate(GateKind.AND, one, b)
        with pytest.raises(ValueError, match="'const_1' is a constant"):
            nl.tie(one, b)
        # the constant is still an input, pinned, and still the cached one
        assert one in nl.inputs and nl.constant(True) == one


class TestTopology:
    def test_acyclic_depth(self):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        x = nl.add_gate(GateKind.AND, a, b)
        y = nl.add_gate(GateKind.OR, x, b)
        nl.add_gate(GateKind.NOT, y)
        assert topological_depth(nl) == 3

    def test_cyclic_detection(self):
        from repro.circuits.mux_ring import MuxRing

        ring = MuxRing(4, 1)
        with pytest.raises(ValueError, match="cyclic"):
            topological_depth(ring.netlist)

    def test_simulate_rejects_driving_internal_net(self):
        nl = Netlist()
        a = nl.add_input("a")
        out = nl.add_gate(GateKind.BUF, a)
        with pytest.raises(ValueError, match="not a primary input"):
            nl.simulate({out: True})

    def test_simulate_rejects_assigning_a_constant(self):
        nl = Netlist()
        a, one = nl.add_input("a"), nl.constant(True)
        out = nl.add_gate(GateKind.AND, a, one)
        with pytest.raises(ValueError, match="'const_1' is a constant"):
            nl.simulate({a: True, one: False})
        assert nl.simulate({a: True}).value_of(out) is True


class TestBusHelpers:
    def test_bus_and_bus_value(self):
        nl = Netlist()
        nets = bus(nl, "data", 8)
        outs = [nl.add_gate(GateKind.BUF, net) for net in nets]
        result = nl.simulate({nets[i]: bool((0xA5 >> i) & 1) for i in range(8)})
        assert bus_value(result, outs) == 0xA5

    def test_assign_bus(self):
        nl = Netlist()
        nets = bus(nl, "data", 4)
        outs = [nl.add_gate(GateKind.NOT, net) for net in nets]
        assignment: dict[int, bool] = {}
        assign_bus(assignment, nets, 0b0101)
        assert assignment == dict(zip(nets, [True, False, True, False]))
        assert bus_value(nl.simulate(assignment), outs) == 0b1010


#: (gate_count, settle_time, events) of every E9 circuit, per family and n
E9_TIMINGS = {
    "ring": [(4, 4, 8), (8, 8, 16), (16, 16, 32), (32, 32, 64)],
    "cspp": [(9, 3, 11), (21, 5, 24), (45, 7, 49), (93, 9, 98)],
    "grid": [(328, 9, 336), (1856, 18, 1824), (9568, 34, 8512), (46720, 67, 41088)],
    "tgrid": [(948, 5, 254), (5272, 7, 1386), (26768, 8, 6378), (128992, 10, 31354)],
}


@pytest.mark.parametrize("family", sorted(E9_TIMINGS))
def test_e9_circuit_timings_are_pinned(family):
    """The simulator's semantics, pinned on E9's circuits and stimuli."""
    from repro.circuits.cspp import build_copy_cspp
    from repro.circuits.grid import GridNetwork, TreeGridNetwork
    from repro.circuits.mux_ring import MuxRing

    measured = []
    for n in (4, 8, 16, 32):
        # the stimuli repro.experiments.gate_depth.run applies
        stimulus = [1] * n
        segments = [True] + [False] * (n - 1)
        batch = ([(1, True)] * n, [None] * n, [[0, 0]] * n)
        if family == "ring":
            circuit = MuxRing(n, 1)
            result = circuit.simulate(stimulus, segments)
        elif family == "cspp":
            circuit = build_copy_cspp(n, 1)
            result = circuit.simulate(stimulus, segments)
        else:
            circuit = (GridNetwork if family == "grid" else TreeGridNetwork)(n, n)
            result = circuit.simulate(*batch)
        measured.append((circuit.gate_count, result.settle_time, result.events))
    assert measured == E9_TIMINGS[family]
