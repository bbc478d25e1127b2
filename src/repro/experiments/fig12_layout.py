"""Experiment E3 — the paper's empirical layout comparison (Figure 12).

"The Ultrascalar I datapath includes 64 processors in an area of
7 cm x 7 cm, which is 13,000 processors per square meter.  The hybrid
datapath includes 128 processors in an area of 3.2 cm x 2.7 cm, which
is 150,000 processors per square meter (about 11.5 times denser)."

Both layouts: L = 32 x 32-bit registers, register datapath only
(no memory network), 0.35 um / 3 metal constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.tables import Table, format_ratio
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout

#: the paper's published numbers
PAPER_US1 = {"n": 64, "side_cm": 7.0, "area_cm2": 49.0, "stations_per_m2": 13_000.0}
PAPER_HYBRID = {
    "n": 128,
    "area_cm2": 3.2 * 2.7,
    "stations_per_m2": 150_000.0,
}
PAPER_DENSITY_RATIO = 150_000.0 / 13_000.0  # ~11.5x


@dataclass
class Fig12Result:
    """Model vs paper for the two Figure 12 layouts."""

    us1: dict[str, float]
    hybrid: dict[str, float]
    density_ratio: float

    @property
    def ratio_matches_paper(self) -> bool:
        """Within a third of the paper's ~11.5x (model-vs-silicon slack)."""
        return abs(self.density_ratio - PAPER_DENSITY_RATIO) / PAPER_DENSITY_RATIO < 0.34


def run() -> Fig12Result:
    """Build the two Figure 12 layouts in the parametric model."""
    us1 = Ultrascalar1Layout(64, num_registers=32, word_bits=32)
    hybrid = HybridLayout(128, cluster_size=32, num_registers=32, word_bits=32)
    return Fig12Result(
        us1=us1.summary(),
        hybrid=hybrid.summary(),
        density_ratio=hybrid.stations_per_m2 / us1.stations_per_m2,
    )


def report() -> str:
    """The Figure 12 table, paper vs model."""
    outcome = run()
    table = Table(
        ["Layout", "Quantity", "Paper", "Model"],
        title="E3 / Figure 12 — Magic layouts vs parametric layout model "
        "(L=32x32-bit, register datapath only)",
    )
    table.add_row(["US-I 64-wide", "area (cm²)", PAPER_US1["area_cm2"], round(outcome.us1["area_cm2"], 1)])
    table.add_row(
        ["US-I 64-wide", "stations/m²", PAPER_US1["stations_per_m2"], round(outcome.us1["stations_per_m2"])]
    )
    table.add_row(
        ["Hybrid 128-wide", "area (cm²)", round(PAPER_HYBRID["area_cm2"], 2), round(outcome.hybrid["area_cm2"], 1)]
    )
    table.add_row(
        ["Hybrid 128-wide", "stations/m²", PAPER_HYBRID["stations_per_m2"], round(outcome.hybrid["stations_per_m2"])]
    )
    table.add_row(
        ["—", "density ratio", format_ratio(PAPER_DENSITY_RATIO), format_ratio(outcome.density_ratio)]
    )
    return table.render()
