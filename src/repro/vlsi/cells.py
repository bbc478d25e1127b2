"""Execution-station cell area model.

Per the paper's Figure 2, a station holds its own register file (L
registers of w bits plus ready bits), a simple integer ALU, decode
logic, and control.  The ALU's gate count comes from the actual
gate-level netlist in :mod:`repro.circuits.alu`; the register file
scales as L x (w + 1) bit cells; decode and control are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.util.bitops import WORD_BITS
from repro.vlsi.tech import PREFIX_NODE_PITCH, REGFILE_BIT_TRACKS, STATION_LOGIC_TRACKS


@lru_cache(maxsize=None)
def _alu_gate_count(width: int) -> int:
    from repro.circuits.alu import build_alu
    from repro.circuits.netlist import Netlist

    netlist = Netlist()
    build_alu(netlist, width)
    return netlist.gate_count


@dataclass(frozen=True)
class StationCell:
    """The physical footprint of one execution station."""

    num_registers: int
    word_bits: int
    side_tracks: float
    alu_gates: int


def station_cell(
    num_registers: int = 32,
    word_bits: int = WORD_BITS,
    full_register_interface: bool = True,
) -> StationCell:
    """Estimate the station footprint for an (L, w) machine.

    The side is the square root of the summed component areas:
    register-file bits, the gate-level ALU, and a fixed decode/control
    block.  With *full_register_interface* (an Ultrascalar I station,
    which receives the entire annotated register file) the side is never
    smaller than the perimeter needed to land L x (w + 1) datapath
    wires — the very overhead the Ultrascalar II avoids by "pass[ing]
    only the argument and result registers to and from each execution
    station", so grid/cluster stations set it False.
    """
    if num_registers < 1 or word_bits < 1:
        raise ValueError("L and w must be positive")
    alu_gates = _alu_gate_count(min(word_bits, 64))
    regfile_area = (
        num_registers * (word_bits + 1) * REGFILE_BIT_TRACKS**2 * 40.0
    )  # bit cell ~ (0.55 * sqrt(40))^2 tracks^2
    alu_area = alu_gates * 9.0  # ~3x3 tracks per gate
    control_area = STATION_LOGIC_TRACKS**2 * 0.05
    content_side = math.sqrt(regfile_area + alu_area + control_area)
    side = content_side
    if full_register_interface:
        wire_side = num_registers * (word_bits + 1) * PREFIX_NODE_PITCH * 0.75
        side = max(content_side, wire_side)
    return StationCell(
        num_registers=num_registers,
        word_bits=word_bits,
        side_tracks=side,
        alu_gates=alu_gates,
    )
