"""Instruction decode logic (the paper's Figure 2).

"The decode logic generates a modified bit for every logical register,
indicating whether the station has modified the register's value ...
The modified bit is used to control the register's multiplexer in the
datapath."

The core is a binary-to-one-hot decoder over the destination-register
field, gated by a writes-anything enable: exactly the L modified bits
each execution station drives into the L register rings.  Gate depth is
Θ(log log L) (an AND tree over the ceil(log2 L) address bits per
output), negligible against the datapath.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.comparator import build_constant_match, register_number_bits
from repro.circuits.netlist import GateKind, Net, Netlist, assign_bus


@dataclass(frozen=True)
class DecoderPorts:
    """Primary nets of a modified-bit decoder."""

    reg_bits: list[Net]
    write_enable: Net
    modified: list[Net]


def build_modified_bit_decoder(
    netlist: Netlist, num_registers: int, name: str = "dec"
) -> DecoderPorts:
    """Build the one-hot modified-bit decoder for *num_registers*."""
    if num_registers < 1:
        raise ValueError("need at least one register")
    bits = register_number_bits(num_registers)
    reg = [netlist.add_input(f"{name}_rd[{b}]") for b in range(bits)]
    enable = netlist.add_input(f"{name}_wen")
    modified = []
    for r in range(num_registers):
        match = build_constant_match(netlist, reg, r)
        modified.append(
            netlist.mark_output(
                f"{name}_m{r}", netlist.add_gate(GateKind.AND, match, enable)
            )
        )
    return DecoderPorts(reg_bits=reg, write_enable=enable, modified=modified)


def evaluate_decoder(
    netlist: Netlist, ports: DecoderPorts, rd: int, write_enable: bool
) -> list[bool]:
    """Simulate the decoder; returns the L modified bits."""
    assignment: dict[Net, bool] = {ports.write_enable: write_enable}
    assign_bus(assignment, ports.reg_bits, rd)
    result = netlist.simulate(assignment)
    return [result.value_of(net) for net in ports.modified]
