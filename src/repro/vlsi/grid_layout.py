"""The Ultrascalar II floorplan (the paper's Figure 7 and Section 5).

"The execution stations are layed out along a diagonal, with the
register datapath layed out in the triangle below the diagonal.  The
memory switches are placed in the space above the diagonal ... the
entire Ultrascalar II can be layed out in a box with side-length
O(n + L)."

Three variants:

* ``linear`` — the linear-gate-delay grid: side Θ(n + L);
* ``tree`` — the log-gate-delay mesh-of-trees: side
  Θ((n + L) log(n + L)) ("the side length increases ... if the
  tree-of-meshes implementation is used");
* ``mixed`` — the paper's practical strategy: a few tree levels absorbed
  into the slack near the root where wire delay dominates anyway, with
  "asymptotic results ... exactly the same as for the linear-time
  circuit ... with greatly improved constant factors" (the paper found
  ~3 free levels in their layout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.comparator import register_number_bits
from repro.util.bitops import WORD_BITS
from repro.vlsi.cells import StationCell, station_cell
from repro.vlsi.tech import GRID_ROW_PITCH_PER_BIT, tracks_to_cm

#: tree levels the mixed variant absorbs without area growth (the
#: paper's layouts fit "about three levels ... without impacting the
#: total layout area")
FREE_TREE_LEVELS = 3


@dataclass(eq=False)
class Ultrascalar2Layout:
    """Parametric Ultrascalar II layout.

    Args:
        n: stations in the (non-wrap-around) batch.
        num_registers: ``L`` (of ``w`` = 32 bits each).
        variant: ``"linear"``, ``"tree"``, or ``"mixed"``.
    """

    n: int
    num_registers: int = 32
    variant: str = "linear"
    #: the paper: "it appears to cost nearly a factor of two in area to
    #: implement the wrap-around mechanism" — set True to model the
    #: wrap-around Ultrascalar II (which then refills per-station like
    #: the ring instead of idling)
    wraparound: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.variant not in ("linear", "tree", "mixed"):
            raise ValueError(f"unknown variant {self.variant!r}")
        # Grid stations receive only their arguments, not the whole
        # register file — no L(w+1)-wire perimeter requirement.
        self.station: StationCell = station_cell(self.num_registers, full_register_interface=False)

    # -- geometry -------------------------------------------------------

    @property
    def rows(self) -> int:
        """Grid rows: one binding row per station plus the register file."""
        return self.n + self.num_registers

    @property
    def cols(self) -> int:
        """Grid columns: two argument columns per station plus outgoing."""
        return 2 * self.n + self.num_registers

    @property
    def row_pitch(self) -> float:
        """Tracks per row: value + ready + register-number wires."""
        bits = WORD_BITS + 1 + register_number_bits(self.num_registers)
        return bits * GRID_ROW_PITCH_PER_BIT

    def _tree_blowup(self) -> float:
        """Side multiplier of the chosen variant.

        ``tree`` pays the full Θ(log(n+L)) factor.  ``mixed`` is the
        paper's practical strategy — tree circuits only for the few
        levels whose wiring fits in the layout's slack ("about three
        levels ... without impacting the total layout area"), linear
        prefix circuits beyond — so its *side length* equals the linear
        variant's; only its gate delay improves.
        """
        size = self.rows + self.cols
        if self.variant in ("linear", "mixed"):
            return 1.0
        levels = math.ceil(math.log2(max(2, size)))
        return float(max(1, levels))

    def gate_delay(self) -> float:
        """Datapath gate delay of the chosen variant.

        linear: Θ(n + L); tree: Θ(log(n + L)); mixed: linear beyond the
        free tree levels, i.e. Θ((n + L) / 2^free) + the tree prefix.
        """
        size = self.rows + self.cols
        if self.variant == "linear":
            return float(size)
        levels = math.ceil(math.log2(max(2, size)))
        if self.variant == "tree":
            return float(levels)
        covered = min(FREE_TREE_LEVELS, levels)
        return size / float(2**covered) + covered

    def side_length(self) -> float:
        """Side in tracks: Θ(n + L) (times the variant's log blow-up).

        The datapath triangle of rows/columns plus the station logic,
        which packs two-dimensionally (the paper's layouts "placed the
        32 ALUs of each cluster in 4 columns of 8 ALUs each, arrayed off
        the diagonal"); the memory switches fit above the diagonal "with
        at worst a constant blowup in area" (M(n) = O(n) always fits).
        """
        datapath = (self.rows + self.cols) / 2.0 * self.row_pitch
        stations = math.sqrt(self.n) * self.station.side_tracks
        side = (datapath + stations) * self._tree_blowup()
        if self.wraparound:
            side *= math.sqrt(2.0)  # "nearly a factor of two in area"
        return side

    @property
    def critical_wire(self) -> float:
        """Longest datapath wire: across the grid and back, Θ(side)."""
        return 2.0 * self.side_length()

    @property
    def stations_per_m2(self) -> float:
        """Density in stations per square metre."""
        side_cm = tracks_to_cm(self.side_length())
        return self.n / (side_cm / 100.0) ** 2

    def summary(self) -> dict[str, float]:
        """Headline numbers in physical units."""
        side_cm = tracks_to_cm(self.side_length())
        return {
            "n": self.n,
            "L": self.num_registers,
            "variant": self.variant,
            "side_cm": side_cm,
            "area_cm2": side_cm**2,
            "critical_wire_cm": tracks_to_cm(self.critical_wire),
            "stations_per_m2": self.stations_per_m2,
        }
