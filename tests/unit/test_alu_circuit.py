"""Unit tests for the gate-level ALU."""

import pytest

from repro.circuits.alu import (
    OP_ADD,
    OP_AND,
    OP_OR,
    OP_SUB,
    build_alu,
    build_full_adder,
    build_ripple_adder,
)
from repro.circuits.netlist import Netlist, assign_bus, bus, bus_value
from tests.oracles import topological_depth


def evaluate_alu(netlist, ports, a, b, op):
    """Simulate the ALU on concrete operands; returns the result bus value."""
    assignment = {}
    assign_bus(assignment, ports.a, a)
    assign_bus(assignment, ports.b, b)
    assign_bus(assignment, ports.op, op)
    return bus_value(netlist.simulate(assignment), ports.result)


class TestFullAdder:
    @pytest.mark.parametrize("a,b,c", [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    def test_truth_table(self, a, b, c):
        nl = Netlist()
        ins = [nl.add_input(name) for name in "abc"]
        s, cout = build_full_adder(nl, *ins)
        result = nl.simulate({ins[0]: bool(a), ins[1]: bool(b), ins[2]: bool(c)})
        total = a + b + c
        assert result.value_of(s) == bool(total & 1)
        assert result.value_of(cout) == bool(total >> 1)


class TestRippleAdder:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (255, 1), (170, 85), (200, 100)])
    def test_addition(self, a, b):
        nl = Netlist()
        abus, bbus = bus(nl, "a", 8), bus(nl, "b", 8)
        cin = nl.constant(False)
        sums, cout = build_ripple_adder(nl, abus, bbus, cin)
        assignment = {}
        for i in range(8):
            assignment[abus[i]] = bool((a >> i) & 1)
            assignment[bbus[i]] = bool((b >> i) & 1)
        result = nl.simulate(assignment)
        assert bus_value(result, sums) == (a + b) & 0xFF
        assert result.value_of(cout) == bool((a + b) >> 8)

    def test_carry_ripple_depth_is_linear(self):
        depths = []
        for width in (8, 16, 32):
            nl = Netlist()
            sums, _ = build_ripple_adder(nl, bus(nl, "a", width), bus(nl, "b", width), nl.constant(False))
            depths.append(topological_depth(nl))
        # per-bit slope constant: the carry chain adds a fixed delay per bit
        slope_1 = (depths[1] - depths[0]) / 8
        slope_2 = (depths[2] - depths[1]) / 16
        assert slope_1 == pytest.approx(slope_2, abs=0.5)
        assert depths[2] > depths[0]

    def test_width_mismatch(self):
        nl = Netlist()
        with pytest.raises(ValueError):
            build_ripple_adder(nl, bus(nl, "a", 4), bus(nl, "b", 5), nl.constant(False))


class TestAlu:
    @pytest.fixture(scope="class")
    def alu8(self):
        nl = Netlist()
        ports = build_alu(nl, 8)
        return nl, ports

    @pytest.mark.parametrize(
        "a,b,op,expected",
        [
            (3, 4, OP_ADD, 7),
            (250, 10, OP_ADD, 4),
            (10, 3, OP_SUB, 7),
            (3, 10, OP_SUB, (3 - 10) & 0xFF),
            (0b1100, 0b1010, OP_AND, 0b1000),
            (0b1100, 0b1010, OP_OR, 0b1110),
            (0, 0, OP_SUB, 0),
            (0xFF, 0xFF, OP_AND, 0xFF),
        ],
    )
    def test_operations(self, alu8, a, b, op, expected):
        nl, ports = alu8
        assert evaluate_alu(nl, ports, a, b, op) == expected

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_alu(Netlist(), 0)

    def test_gate_count_scales_linearly_with_width(self):
        nl8, nl16 = Netlist(), Netlist()
        build_alu(nl8, 8)
        build_alu(nl16, 16)
        assert nl16.gate_count == pytest.approx(2 * nl8.gate_count, rel=0.2)
