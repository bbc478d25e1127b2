"""The paper's Figure 11: the asymptotic comparison table, as evaluable data.

Each entry stores both the Θ-expression string (exactly as printed in
the paper) and an evaluable function of (n, L, M(n)): E2 prints the
string beside the growth exponent it fits from the function, next to
the exponent measured on the layout model.  The hybrid column assumes
C = Θ(L) (the paper's "Hybrid (n = Ω(L))" column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.analysis.regimes import Regime
from repro.util.tables import Table

Evaluator = Callable[[float, float, float], float]  # (n, L, M(n)) -> Theta value


def _log(x: float) -> float:
    return math.log2(max(2.0, x))


@dataclass(frozen=True)
class Figure11Row:
    """One (regime, processor, quantity) cell of Figure 11."""

    regime: Regime
    processor: str
    quantity: str
    formula: str
    evaluate: Evaluator


_PROCESSORS = ("ultrascalar1", "ultrascalar2-linear", "ultrascalar2-log", "hybrid")
_QUANTITIES = ("gate_delay", "wire_delay", "total_delay", "area")


def _rows() -> list[Figure11Row]:
    rows: list[Figure11Row] = []

    def add(regime: Regime, processor: str, quantity: str, formula: str,
            evaluate: Evaluator) -> None:
        rows.append(Figure11Row(regime, processor, quantity, formula, evaluate))

    for regime in Regime:
        # ---- gate delays: identical across regimes -----------------------
        add(regime, "ultrascalar1", "gate_delay", "Θ(log n)",
            lambda n, L, M: _log(n))
        add(regime, "ultrascalar2-linear", "gate_delay", "Θ(n + L)",
            lambda n, L, M: n + L)
        add(regime, "ultrascalar2-log", "gate_delay", "Θ(log(n + L))",
            lambda n, L, M: _log(n + L))
        add(regime, "hybrid", "gate_delay", "Θ(L + log n)",
            lambda n, L, M: L + _log(n))

        # ---- Ultrascalar II wire delays / areas: regime-independent ------
        add(regime, "ultrascalar2-linear", "wire_delay", "Θ(n + L)",
            lambda n, L, M: n + L)
        add(regime, "ultrascalar2-linear", "total_delay", "Θ(n + L)",
            lambda n, L, M: n + L)
        add(regime, "ultrascalar2-linear", "area", "Θ(n² + L²)",
            lambda n, L, M: n**2 + L**2)
        add(regime, "ultrascalar2-log", "wire_delay", "Θ((n + L) log(n + L))",
            lambda n, L, M: (n + L) * _log(n + L))
        add(regime, "ultrascalar2-log", "total_delay", "Θ((n + L) log(n + L))",
            lambda n, L, M: (n + L) * _log(n + L))
        add(regime, "ultrascalar2-log", "area", "Θ((n + L)² log²(n + L))",
            lambda n, L, M: (n + L) ** 2 * _log(n + L) ** 2)

    # ---- Ultrascalar I and hybrid: regime-dependent ----------------------
    # Case 1: M(n) = O(n^(1/2-eps))
    add(Regime.CASE1, "ultrascalar1", "wire_delay", "Θ(√n L)",
        lambda n, L, M: math.sqrt(n) * L)
    add(Regime.CASE1, "ultrascalar1", "total_delay", "Θ(√n L)",
        lambda n, L, M: math.sqrt(n) * L)
    add(Regime.CASE1, "ultrascalar1", "area", "Θ(n L²)",
        lambda n, L, M: n * L**2)
    add(Regime.CASE1, "hybrid", "wire_delay", "Θ(√(n L))",
        lambda n, L, M: math.sqrt(n * L))
    add(Regime.CASE1, "hybrid", "total_delay", "Θ(√(n L))",
        lambda n, L, M: math.sqrt(n * L))
    add(Regime.CASE1, "hybrid", "area", "Θ(n L)",
        lambda n, L, M: n * L)

    # Case 2: M(n) = Θ(n^(1/2))
    add(Regime.CASE2, "ultrascalar1", "wire_delay", "Θ(√n (L + log n))",
        lambda n, L, M: math.sqrt(n) * (L + _log(n)))
    add(Regime.CASE2, "ultrascalar1", "total_delay", "Θ(√n (L + log n))",
        lambda n, L, M: math.sqrt(n) * (L + _log(n)))
    add(Regime.CASE2, "ultrascalar1", "area", "Θ(n (L² + log² n))",
        lambda n, L, M: n * (L**2 + _log(n) ** 2))
    add(Regime.CASE2, "hybrid", "wire_delay", "Θ(√(n L))",
        lambda n, L, M: math.sqrt(n * L))
    add(Regime.CASE2, "hybrid", "total_delay", "Θ(√(n L))",
        lambda n, L, M: math.sqrt(n * L))
    add(Regime.CASE2, "hybrid", "area", "Θ(n L)",
        lambda n, L, M: n * L)

    # Case 3: M(n) = Ω(n^(1/2+eps))
    add(Regime.CASE3, "ultrascalar1", "wire_delay", "Θ(√n L + M(n))",
        lambda n, L, M: math.sqrt(n) * L + M)
    add(Regime.CASE3, "ultrascalar1", "total_delay", "Θ(√n L + M(n))",
        lambda n, L, M: math.sqrt(n) * L + M)
    add(Regime.CASE3, "ultrascalar1", "area", "Θ(n L² + M(n)²)",
        lambda n, L, M: n * L**2 + M**2)
    add(Regime.CASE3, "hybrid", "wire_delay", "Θ(√(n L) + M(n))",
        lambda n, L, M: math.sqrt(n * L) + M)
    add(Regime.CASE3, "hybrid", "total_delay", "Θ(√(n L) + M(n))",
        lambda n, L, M: math.sqrt(n * L) + M)
    add(Regime.CASE3, "hybrid", "area", "Θ(n L + M(n)²)",
        lambda n, L, M: n * L + M**2)

    return rows


#: every cell of the paper's Figure 11
FIGURE11: tuple[Figure11Row, ...] = tuple(_rows())


def lookup(regime: Regime, processor: str, quantity: str) -> Figure11Row:
    """Fetch one Figure 11 cell; raises KeyError when absent."""
    for row in FIGURE11:
        if row.regime is regime and row.processor == processor and row.quantity == quantity:
            return row
    raise KeyError(f"no Figure 11 entry for ({regime}, {processor}, {quantity})")


def figure11_table(regime: Regime) -> Table:
    """Render one regime's block of Figure 11 as a text table."""
    title = {
        Regime.CASE1: "M(n) = O(n^(1/2-eps))",
        Regime.CASE2: "M(n) = Θ(n^(1/2))",
        Regime.CASE3: "M(n) = Ω(n^(1/2+eps))",
    }[regime]
    table = Table(
        ["Quantity", "Ultrascalar I", "US II (linear)", "US II (log)", "Hybrid (n=Ω(L))"],
        title=f"Figure 11 — {title}",
    )
    label = {
        "gate_delay": "Gate Delay",
        "wire_delay": "Wire Delay",
        "total_delay": "Total Delay",
        "area": "Area",
    }
    for quantity in _QUANTITIES:
        cells = [label[quantity]]
        for processor in _PROCESSORS:
            cells.append(lookup(regime, processor, quantity).formula)
        table.add_row(cells)
    return table
