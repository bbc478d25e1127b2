"""Wire delay: linear in length with repeaters.

"Wire delay can be made linear in wire length by inserting repeater
buffers at appropriate intervals [Dally & Poulton].  Thus we use the
terms wire delay and wire length interchangeably here."
"""

from __future__ import annotations

from repro.vlsi.tech import WIRE_DELAY_PER_TRACK


def wire_delay(length_tracks: float) -> float:
    """Delay of a repeatered wire of *length_tracks*, in gate-delay units
    of the paper's technology."""
    if length_tracks < 0:
        raise ValueError("length must be non-negative")
    return length_tracks * WIRE_DELAY_PER_TRACK
