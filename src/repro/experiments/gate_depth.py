"""Experiment E9 — measured gate-delay growth of the constructed circuits.

The paper's Section 2/4 claims, measured on real netlists with the
event-driven simulator:

* mux ring settles in Θ(n) gate delays;
* CSPP tree settles in Θ(log n);
* Ultrascalar II linear grid settles in Θ(n + L);
* Ultrascalar II mesh-of-trees settles in Θ(log(n + L)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.fitting import fit_exponent
from repro.circuits.cspp import build_copy_cspp
from repro.circuits.grid import GridNetwork, TreeGridNetwork
from repro.circuits.mux_ring import MuxRing
from repro.util.tables import Table


@dataclass
class GateDepthResult:
    """Measured settle times per circuit family."""

    sizes: list[int]
    ring_times: list[int]
    cspp_times: list[int]
    grid_times: list[int]
    tree_grid_times: list[int]

    @property
    def ring_exponent(self) -> float:
        """Fitted growth exponent of the mux ring (expected ~1)."""
        return fit_exponent(self.sizes, self.ring_times)

    @property
    def grid_exponent(self) -> float:
        """Fitted growth exponent of the linear grid (expected ~1)."""
        return fit_exponent(self.sizes, self.grid_times)

    @property
    def cspp_exponent(self) -> float:
        """Fitted exponent of the CSPP tree (expected << 0.5: logarithmic)."""
        return fit_exponent(self.sizes, self.cspp_times)

    @property
    def tree_grid_exponent(self) -> float:
        """Fitted exponent of the mesh-of-trees grid (expected << 0.5)."""
        return fit_exponent(self.sizes, self.tree_grid_times)


def run() -> GateDepthResult:
    """Measure worst-case settle times over a sweep of station counts."""
    sizes = [4, 8, 16, 32]
    ring_times, cspp_times, grid_times, tree_grid_times = [], [], [], []
    for n in sizes:
        stimulus = [1] * n
        segments = [True] + [False] * (n - 1)
        ring_times.append(MuxRing(n, 1).settle_time(stimulus, segments))
        cspp_times.append(build_copy_cspp(n, 1).settle_time(stimulus, segments))
        initial = [(1, True)] * n
        writes = [None] * n
        reads = [[0, 0]] * n
        grid_times.append(GridNetwork(n, n).settle_time(initial, writes, reads))
        tree_grid_times.append(
            TreeGridNetwork(n, n).settle_time(initial, writes, reads)
        )
    return GateDepthResult(
        sizes=sizes,
        ring_times=ring_times,
        cspp_times=cspp_times,
        grid_times=grid_times,
        tree_grid_times=tree_grid_times,
    )


def report() -> str:
    """Render the measured settle-time table with fitted exponents."""
    outcome = run()
    table = Table(
        ["n", "mux ring", "CSPP tree", "US2 linear grid", "US2 mesh-of-trees"],
        title="E9 — measured settle times (gate delays) of the paper's circuits",
    )
    for i, n in enumerate(outcome.sizes):
        table.add_row(
            [
                n,
                outcome.ring_times[i],
                outcome.cspp_times[i],
                outcome.grid_times[i],
                outcome.tree_grid_times[i],
            ]
        )
    footer = (
        f"\nfitted exponents: ring {outcome.ring_exponent:.2f} (paper Θ(n)),"
        f" CSPP {outcome.cspp_exponent:.2f} (paper Θ(log n)),"
        f" grid {outcome.grid_exponent:.2f} (paper Θ(n+L)),"
        f" mesh-of-trees {outcome.tree_grid_exponent:.2f} (paper Θ(log(n+L)))"
    )
    return table.render() + footer
