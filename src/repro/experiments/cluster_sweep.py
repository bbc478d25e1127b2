"""Experiment E5 — optimal hybrid cluster size (Section 6).

"To find the value of C that minimizes U(n), one can differentiate and
solve ... to conclude that the side-length is minimized when C = Θ(L)."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cluster import analytic_optimal_cluster, closed_form_sweep
from repro.util.tables import Table
from repro.vlsi.hybrid_layout import optimal_cluster_size


@dataclass
class ClusterSweepResult:
    """Empirical and closed-form optima per (n, L)."""

    n: int
    sweeps: dict[int, dict[int, float]]       # L -> {C: side}
    best: dict[int, int]                      # L -> best C (layout model)
    closed_form_best: dict[int, int]          # L -> best C (closed form)

    def optimum_tracks_L(self) -> bool:
        """Optimal C within a factor of 4 of L across all L."""
        return all(L / 4 <= c <= L * 4 for L, c in self.best.items())


def run() -> ClusterSweepResult:
    """Sweep cluster sizes for several register-file sizes."""
    n = 4096
    sweeps: dict[int, dict[int, float]] = {}
    best: dict[int, int] = {}
    closed_best: dict[int, int] = {}
    for L in [8, 16, 32, 64]:
        chosen, sides = optimal_cluster_size(n, L)
        sweeps[L] = sides
        best[L] = chosen
        closed = closed_form_sweep(n, L)
        closed_best[L] = min(closed, key=closed.get)
    return ClusterSweepResult(n=n, sweeps=sweeps, best=best, closed_form_best=closed_best)


def report() -> str:
    """U(C) sweep table with the optima highlighted."""
    outcome = run()
    cluster_sizes = sorted(next(iter(outcome.sweeps.values())).keys())
    table = Table(
        ["C"] + [f"L={L}" for L in outcome.sweeps],
        title=f"E5 — hybrid side length U(C) in tracks at n={outcome.n} "
        "(* = minimum; paper: optimal C = Θ(L))",
    )
    for c in cluster_sizes:
        row = [c]
        for L, sides in outcome.sweeps.items():
            mark = "*" if outcome.best[L] == c else ""
            row.append(f"{sides[c]:,.0f}{mark}")
        table.add_row(row)
    footer = "\n" + "  ".join(
        f"L={L}: model C*={outcome.best[L]}, closed-form C*={outcome.closed_form_best[L]}, "
        f"analytic C*={analytic_optimal_cluster(L):.0f}"
        for L in outcome.sweeps
    )
    return table.render() + footer
