"""Experiment E7 — the Section 7 three-dimensional packaging bounds."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.three_d import three_d_table, volume_improvement_2d_to_3d
from repro.util.tables import Table


@dataclass
class ThreeDResult:
    """Evaluated 3-D bounds and 2-D vs 3-D comparisons."""

    bounds_table: str
    hybrid_improvements: dict[int, float]   # L -> 2-D area / 3-D volume ratio
    optimal_cluster_3d: dict[int, float]    # L -> Θ(L^(3/4))

    def improvement_grows_with_L(self) -> bool:
        """The Θ(L^(1/4)) footprint gain increases with L."""
        Ls = sorted(self.hybrid_improvements)
        values = [self.hybrid_improvements[L] for L in Ls]
        return values == sorted(values) and values[-1] > values[0]


def run() -> ThreeDResult:
    """Evaluate the 3-D bounds across register-file sizes."""
    n = 4096
    L_values = [8, 16, 32, 64, 128]
    improvements = {L: volume_improvement_2d_to_3d(n, L) for L in L_values}
    clusters = {L: L**0.75 for L in L_values}
    return ThreeDResult(
        bounds_table=three_d_table(n=n).render(),
        hybrid_improvements=improvements,
        optimal_cluster_3d=clusters,
    )


def report() -> str:
    """Bounds table plus the 2-D -> 3-D hybrid improvements."""
    outcome = run()
    table = Table(
        ["L", "2-D optimal C = Θ(L)", "3-D optimal C = Θ(L^3/4)", "2-D area / 3-D volume"],
        title="E7 — hybrid in three dimensions (paper Section 7)",
    )
    for L, improvement in outcome.hybrid_improvements.items():
        table.add_row([L, L, round(outcome.optimal_cluster_3d[L], 1), round(improvement, 2)])
    return outcome.bounds_table + "\n\n" + table.render()
