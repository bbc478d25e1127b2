"""Experiment E2 — the paper's Figure 11 comparison table.

Two halves:

1. Render the analytic table itself (all three M(n) regimes).
2. Validate the Θ-expressions against the *measured* layout model: fit
   growth exponents of side length / critical wire over n sweeps and
   compare with the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.asymptotics import figure11_table, lookup
from repro.analysis.fitting import fit_exponent
from repro.analysis.regimes import Regime
from repro.util.tables import Table
from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout


#: (report row, Figure 11 column) of each design E2 measures
_DESIGNS = (
    ("Ultrascalar I", "ultrascalar1"),
    ("Ultrascalar II", "ultrascalar2-linear"),
    ("Hybrid (C=L)", "hybrid"),
)


@dataclass
class Fig11Validation:
    """Measured vs predicted wire-delay growth exponents (in n, L fixed)."""

    sizes: list[int]
    L: int
    us1_exponent: float
    us2_exponent: float
    hybrid_exponent: float
    #: per Figure 11 column, the exponent in n of the paper's Case-1
    #: wire-delay law, fitted over the same sizes as the measurements
    predictions: dict[str, float]


def validate() -> Fig11Validation:
    """Fit measured wire-delay exponents at fixed L (Case 1: M = 0).

    Exponents are fitted on the tail of the sweep: the Θ-bounds are
    asymptotic, and at small n the US-II station logic (a √n term) still
    contributes to the Θ(n + L) datapath side.
    """
    sizes = [4**k for k in range(3, 11)]  # 64 .. ~1M
    L = 32
    tail = sizes[-4:]
    us1 = [Ultrascalar1Layout(n, L).critical_wire for n in tail]
    us2 = [Ultrascalar2Layout(n, L, variant="linear").critical_wire for n in tail]
    hybrid = [HybridLayout(n, L, L).critical_wire for n in tail]
    law = {processor: lookup(Regime.CASE1, processor, "wire_delay") for _, processor in _DESIGNS}
    return Fig11Validation(
        sizes=sizes,
        L=L,
        us1_exponent=fit_exponent(tail, us1),
        us2_exponent=fit_exponent(tail, us2),
        hybrid_exponent=fit_exponent(tail, hybrid),
        predictions={
            processor: fit_exponent(tail, [row.evaluate(n, L, 0.0) for n in tail])
            for processor, row in law.items()
        },
    )


def report() -> str:
    """All three Figure 11 regime tables plus the measured validation."""
    blocks = [figure11_table(regime).render() for regime in Regime]
    validation = validate()
    table = Table(
        ["Processor", "Measured wire exponent (in n)", "Paper (Case 1)"],
        title=f"E2 — measured layout-model growth at L={validation.L}, M=0",
    )
    measured = (validation.us1_exponent, validation.us2_exponent, validation.hybrid_exponent)
    for (label, processor), exponent in zip(_DESIGNS, measured):
        formula = lookup(Regime.CASE1, processor, "wire_delay").formula
        paper = f"{round(validation.predictions[processor], 1)}  ({formula})"
        table.add_row([label, round(exponent, 3), paper])
    return "\n\n".join(blocks + [table.render()])

