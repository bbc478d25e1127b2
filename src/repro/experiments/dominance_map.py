"""Experiment E13 — the dominance map over the (n, L) design space.

Section 7: "The analysis shows that the hybrid dominates the other
processors.  The Ultrascalar I and Ultrascalar II are incomparable,
each beating the other in certain cases."

We evaluate all three layout models over a grid of (n, L) and mark the
winner (shortest critical wire) in each cell — the "who wins where"
picture behind the paper's crossover statements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.tables import Table
from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout


@dataclass
class DominanceMap:
    """Winner per (n, L) cell."""

    n_values: list[int]
    L_values: list[int]
    #: (n, L) -> "US1" | "US2" | "HYB" ignoring the hybrid / including it
    winner_pairwise: dict[tuple[int, int], str]
    winner_overall: dict[tuple[int, int], str]

    def us2_wins_somewhere(self) -> bool:
        """The incomparability claim needs US-II to win some cell."""
        return any(w == "US2" for w in self.winner_pairwise.values())

    def us1_wins_somewhere(self) -> bool:
        """... and US-I to win some other cell."""
        return any(w == "US1" for w in self.winner_pairwise.values())

    def hybrid_wins_at_scale(self) -> bool:
        """The hybrid dominates wherever n >= 16 L.

        The paper's dominance claim is asymptotic ("For n >= L the
        hybrid dominates both"); at small n the hybrid degenerates to a
        single Ultrascalar II cluster plus H-tree overhead, so the
        constant-factor threshold is where the claim bites.
        """
        return all(
            self.winner_overall[(n, L)] == "HYB"
            for n in self.n_values
            for L in self.L_values
            if n >= 16 * L
        )

    def pairwise_boundary_is_monotone(self) -> bool:
        """Along each L row, once US-I starts winning it keeps winning
        as n grows (a single crossover, as Θ(L²) implies)."""
        for L in self.L_values:
            seen_us1 = False
            for n in self.n_values:
                winner = self.winner_pairwise[(n, L)]
                if winner == "US1":
                    seen_us1 = True
                elif seen_us1:
                    return False
        return True


def _hybrid_for(n: int, L: int) -> HybridLayout:
    cluster = min(L, n)
    while n % cluster:
        cluster //= 2
    return HybridLayout(n, max(1, cluster), L)


def run() -> DominanceMap:
    """Evaluate the grid over window sizes (the n axis) and L."""
    n_values = [16, 64, 256, 1024, 4096, 16384]
    L_values = [8, 16, 32, 64, 128]
    pairwise: dict[tuple[int, int], str] = {}
    overall: dict[tuple[int, int], str] = {}
    for n in n_values:
        for L in L_values:
            us1 = Ultrascalar1Layout(n, L).critical_wire
            us2 = Ultrascalar2Layout(n, L).critical_wire
            hybrid = _hybrid_for(n, L).critical_wire
            pairwise[(n, L)] = "US1" if us1 <= us2 else "US2"
            best = min(("HYB", hybrid), ("US1", us1), ("US2", us2), key=lambda t: t[1])
            overall[(n, L)] = best[0]
    return DominanceMap(
        n_values=n_values,
        L_values=L_values,
        winner_pairwise=pairwise,
        winner_overall=overall,
    )


def report() -> str:
    """Two maps: US-I vs US-II, and overall (with the hybrid)."""
    outcome = run()
    pair = Table(
        ["n \\ L"] + [str(L) for L in outcome.L_values],
        title="E13 — shortest critical wire, US-I vs US-II "
        "(the incomparability map; crossover at n = Θ(L²))",
    )
    for n in outcome.n_values:
        pair.add_row([n] + [outcome.winner_pairwise[(n, L)] for L in outcome.L_values])
    full = Table(
        ["n \\ L"] + [str(L) for L in outcome.L_values],
        title="Overall winner including the hybrid",
    )
    for n in outcome.n_values:
        full.add_row([n] + [outcome.winner_overall[(n, L)] for L in outcome.L_values])
    return pair.render() + "\n\n" + full.render()
