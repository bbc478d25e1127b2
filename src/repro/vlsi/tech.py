"""Technology parameters and calibration.

All geometry in this package is measured in **tracks**: one track is the
pitch at which one datapath wire plus its share of the switching logic
can be laid out.  A track is deliberately coarser than a bare
metal pitch — in the paper's 3-metal 0.35 um process the register
datapath's "wires" are accompanied at every tree node by the
parallel-prefix mux cells, so the effective pitch is set by the
standard-cell row, not the metal rules.

Calibration: the paper reports a 64-station Ultrascalar I register
datapath (L = 32 x 32-bit, simple integer ALU) occupying 7 cm x 7 cm.
Our H-tree model gives X(64) = 8*s0 + 7*B tracks (s0 = station side,
B = switch-block side); with the default constants below and
``track_um = 4.0`` this reproduces ~7 cm, and the hybrid's 3.2 x 2.7 cm
follows from the same constants (see EXPERIMENTS.md, E3).  The
*ratios* between layouts — what the paper's empirical comparison is
about — do not depend on ``track_um`` at all.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Technology:
    """Process and layout-constant bundle.

    Attributes:
        name: human label.
        track_um: physical size of one track in micrometres (absolute
            scale only; ratios are scale-free).
        metal_layers: routing layers (3 in the paper's academic flow).
        wire_delay_per_track: relative delay of one track of repeatered
            wire, in gate-delay units ("wire delay can be made linear in
            wire length by inserting repeater buffers").
        station_logic_tracks: side contribution of one execution
            station's non-register logic (ALU + decode + control), in
            tracks, for a 32-bit machine; scaled by word width.
        regfile_bit_tracks: linear tracks per register-file bit cell.
        prefix_node_pitch: tracks of switch-block side per datapath wire
            passing through an H-tree prefix node (the P cells of
            Figure 6).
        grid_row_pitch_per_bit: tracks of Ultrascalar II grid row height
            per bit carried (value + ready + register-number wires).
        memory_wire_pitch: tracks of switch-block side per memory wire
            (the M cells of Figure 6).
    """

    name: str = "paper-0.35um-3metal"
    track_um: float = 4.0
    metal_layers: int = 3
    wire_delay_per_track: float = 0.02
    station_logic_tracks: float = 280.0
    regfile_bit_tracks: float = 0.55
    prefix_node_pitch: float = 1.25
    grid_row_pitch_per_bit: float = 0.7
    memory_wire_pitch: float = 1.25

    def __post_init__(self) -> None:
        for field_name in (
            "track_um",
            "wire_delay_per_track",
            "station_logic_tracks",
            "regfile_bit_tracks",
            "prefix_node_pitch",
            "grid_row_pitch_per_bit",
            "memory_wire_pitch",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.metal_layers < 1:
            raise ValueError("need at least one metal layer")

    def tracks_to_cm(self, tracks: float) -> float:
        """Convert a track length to centimetres (1 um = 1e-4 cm)."""
        return tracks * self.track_um * 1e-4


#: The paper's empirical technology (0.35 um CMOS, 3 metal layers).
PAPER_TECH = Technology()
