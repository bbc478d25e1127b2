"""A gate-level integer ALU ("a simple integer ALU", Section 7).

The paper's empirical layouts replicate a simple integer ALU in every
execution station.  This module builds one as a real netlist — a
ripple-carry adder/subtractor plus bitwise logic and an operation mux —
so the VLSI model can derive a realistic standard-cell count for an
execution station, and so tests can check the datapath end to end at
gate level.

Operation select (2 bits): 00=ADD, 01=SUB, 10=AND, 11=OR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import GateKind, Net, Netlist, bus


@dataclass(frozen=True)
class AluPorts:
    """Primary nets of a constructed ALU."""

    a: list[Net]
    b: list[Net]
    op: list[Net]  # 2 bits: op[0]=low
    result: list[Net]
    carry_out: Net


OP_ADD = 0
OP_SUB = 1
OP_AND = 2
OP_OR = 3


def build_full_adder(netlist: Netlist, a: Net, b: Net, cin: Net) -> tuple[Net, Net]:
    """One full adder; returns (sum, carry_out)."""
    axb = netlist.add_gate(GateKind.XOR, a, b)
    total = netlist.add_gate(GateKind.XOR, axb, cin)
    carry = netlist.add_gate(
        GateKind.OR,
        netlist.add_gate(GateKind.AND, a, b),
        netlist.add_gate(GateKind.AND, axb, cin),
    )
    return total, carry


def build_ripple_adder(
    netlist: Netlist, a: list[Net], b: list[Net], cin: Net
) -> tuple[list[Net], Net]:
    """Ripple-carry adder over equal-width buses; returns (sum bus, carry out)."""
    if len(a) != len(b):
        raise ValueError("bus widths differ")
    sums: list[Net] = []
    carry = cin
    for ai, bi in zip(a, b):
        s, carry = build_full_adder(netlist, ai, bi, carry)
        sums.append(s)
    return sums, carry


def build_alu(netlist: Netlist, width: int = 32) -> AluPorts:
    """Build the 4-operation ALU; returns its port nets.

    Subtraction is implemented as ``a + ~b + 1`` by muxing inverted ``b``
    into the adder and driving carry-in from the op code.
    """
    if width < 1:
        raise ValueError("width must be positive")
    a = bus(netlist, "alu_a", width)
    b = bus(netlist, "alu_b", width)
    op = bus(netlist, "alu_op", 2)

    is_sub = netlist.add_gate(
        GateKind.AND, op[0], netlist.add_gate(GateKind.NOT, op[1])
    )
    b_eff = [
        netlist.mux(is_sub, netlist.add_gate(GateKind.NOT, bi), bi) for bi in b
    ]
    sums, carry = build_ripple_adder(netlist, a, b_eff, is_sub)

    ands = [netlist.add_gate(GateKind.AND, ai, bi) for ai, bi in zip(a, b)]
    ors = [netlist.add_gate(GateKind.OR, ai, bi) for ai, bi in zip(a, b)]

    result = []
    for i in range(width):
        logic = netlist.mux(op[0], ors[i], ands[i])  # op=11 -> OR, op=10 -> AND
        result.append(netlist.mux(op[1], logic, sums[i]))  # op[1]=1 -> logic
    for i, net in enumerate(result):
        netlist.mark_output(f"alu_r[{i}]", net)
    netlist.mark_output("alu_cout", carry)
    return AluPorts(a=a, b=b, op=op, result=result, carry_out=carry)
