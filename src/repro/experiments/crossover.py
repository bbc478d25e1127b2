"""Experiment E4 — the Section 7 dominance crossovers.

* Ultrascalar II beats Ultrascalar I by Θ(L/√n) wire delay for n = o(L²);
* Ultrascalar I wins beyond the crossover at n = Θ(L²);
* the hybrid beats the Ultrascalar I by an additional Θ(√L).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.crossover import find_crossover, hybrid_advantage, wire_delay_ratio
from repro.analysis.fitting import fit_exponent
from repro.util.tables import Table

#: the large window the US1/hybrid advantage factor is evaluated at
HYBRID_N = 65536


@dataclass
class CrossoverResult:
    """Measured crossovers and dominance factors."""

    crossovers: dict[int, int | None]          # L -> n*
    ratio_sweep: dict[int, list[tuple[int, float]]]  # L -> [(n, US1/US2 wire ratio)]
    hybrid_factors: dict[int, float]           # L -> US1/hybrid wire ratio at large n

    def crossover_tracks_L_squared(self) -> bool:
        """n*/L² constant across L (the Θ(L²) claim)."""
        ratios = [
            n_star / (L * L)
            for L, n_star in self.crossovers.items()
            if n_star is not None
        ]
        if len(ratios) < 2:
            return False
        return max(ratios) / min(ratios) < 2.0

    def hybrid_factor_grows_like_sqrt_L(self) -> bool:
        """US1/hybrid advantage exponent in L ~ 0.5."""
        Ls = sorted(self.hybrid_factors)
        exponent = fit_exponent(Ls, [self.hybrid_factors[L] for L in Ls])
        return 0.3 <= exponent <= 0.7


def run() -> CrossoverResult:
    """Sweep the layout model over window sizes and L."""
    L_values = [8, 16, 32, 64]
    sizes = [16, 64, 256, 1024, 4096, 16384]
    crossovers = {L: find_crossover(L) for L in L_values}
    ratio_sweep = {
        L: [(size, wire_delay_ratio(size, L)) for size in sizes] for L in L_values
    }
    hybrid_factors = {L: hybrid_advantage(HYBRID_N, L) for L in L_values}
    return CrossoverResult(
        crossovers=crossovers,
        ratio_sweep=ratio_sweep,
        hybrid_factors=hybrid_factors,
    )


def report() -> str:
    """Crossover and dominance tables."""
    outcome = run()
    table = Table(
        ["L", "crossover n*", "n*/L²", f"US1/hybrid wire ratio @ n={HYBRID_N}"],
        title="E4 — dominance crossovers (US-II wins below n*, US-I above; "
        "paper: n* = Θ(L²), hybrid advantage Θ(√L))",
    )
    for L, n_star in outcome.crossovers.items():
        table.add_row(
            [
                L,
                n_star if n_star is not None else ">max",
                round(n_star / L**2, 2) if n_star else "-",
                round(outcome.hybrid_factors[L], 2),
            ]
        )
    sweep = Table(
        ["n"] + [f"L={L}" for L in outcome.ratio_sweep],
        title="US-I wire delay / US-II wire delay (>1 means US-II wins)",
    )
    swept_sizes = [size for size, _ in next(iter(outcome.ratio_sweep.values()))]
    for i, n in enumerate(swept_sizes):
        sweep.add_row([n] + [round(outcome.ratio_sweep[L][i][1], 2) for L in outcome.ratio_sweep])
    return table.render() + "\n\n" + sweep.render()
