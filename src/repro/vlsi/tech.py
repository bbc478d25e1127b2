"""The paper's technology: layout constants and calibration.

All geometry in this package is measured in **tracks**: one track is the
pitch at which one datapath wire plus its share of the switching logic
can be laid out.  A track is deliberately coarser than a bare
metal pitch — in the paper's 3-metal 0.35 um process the register
datapath's "wires" are accompanied at every tree node by the
parallel-prefix mux cells, so the effective pitch is set by the
standard-cell row, not the metal rules.

The paper compares layouts in one process, so each constant below has
one value.  Its one projection beyond it, the 1 cm chip at 0.1 um, is a
linear shrink of :data:`TRACK_UM` (experiment E16).

Calibration: the paper reports a 64-station Ultrascalar I register
datapath (L = 32 x 32-bit, simple integer ALU) occupying 7 cm x 7 cm.
Our H-tree model gives X(64) = 8*s0 + 7*B tracks (s0 = station side,
B = switch-block side); with the constants below and
``TRACK_UM = 4.0`` this reproduces ~7 cm, and the hybrid's 3.2 x 2.7 cm
follows from the same constants (see EXPERIMENTS.md, E3).  The
*ratios* between layouts — what the paper's empirical comparison is
about — do not depend on ``TRACK_UM`` at all.
"""

from __future__ import annotations

#: physical size of one track in micrometres (absolute scale only;
#: ratios are scale-free)
TRACK_UM = 4.0

#: relative delay of one track of repeatered wire, in gate-delay units
#: ("wire delay can be made linear in wire length by inserting repeater
#: buffers")
WIRE_DELAY_PER_TRACK = 0.02

#: side contribution of one execution station's non-register logic (ALU
#: + decode + control), in tracks, for a 32-bit machine
STATION_LOGIC_TRACKS = 280.0

#: linear tracks per register-file bit cell
REGFILE_BIT_TRACKS = 0.55

#: tracks of switch-block side per datapath wire passing through an
#: H-tree prefix node (the P cells of Figure 6)
PREFIX_NODE_PITCH = 1.25

#: tracks of Ultrascalar II grid row height per bit carried (value +
#: ready + register-number wires)
GRID_ROW_PITCH_PER_BIT = 0.7

#: tracks of switch-block side per memory wire (the M cells of Figure 6)
MEMORY_WIRE_PITCH = 1.25


def tracks_to_cm(tracks: float) -> float:
    """Convert a track length to centimetres (1 um = 1e-4 cm)."""
    return tracks * TRACK_UM * 1e-4
