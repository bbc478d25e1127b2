"""Explore the VLSI design space: which datapath wins at which (n, L, M)?

Usage::

    python examples/design_space_explorer.py [L]

For the chosen register-file size, sweeps the window size and memory
bandwidth, printing side lengths, wire delays, densities, and the
dominance crossovers — the full Section 7 analysis at your parameters.
"""

import sys

from repro.analysis.crossover import find_crossover, hybrid_advantage, wire_delay_ratio
from repro.network.fattree import bandwidth_power
from repro.util.tables import Table
from repro.vlsi import (
    HybridLayout,
    Ultrascalar1Layout,
    Ultrascalar2Layout,
    optimal_cluster_size,
    tracks_to_cm,
)


def main(L: int = 32) -> None:
    print(f"=== Design-space exploration at L = {L} ===\n")

    table = Table(
        ["n", "US-I side (cm)", "US-II side (cm)", "Hybrid side (cm)",
         "US-I/US-II wire", "US-I/Hybrid wire"],
        title="Side lengths and wire-delay ratios (register datapath, M=0)",
    )
    for n in (16, 64, 256, 1024, 4096):
        us1 = Ultrascalar1Layout(n, L)
        us2 = Ultrascalar2Layout(n, L)
        cluster = max(1, min(L, n))
        while n % cluster:
            cluster //= 2
        hybrid = HybridLayout(n, cluster, L)
        table.add_row(
            [
                n,
                round(tracks_to_cm(us1.side_length()), 2),
                round(tracks_to_cm(us2.side_length()), 2),
                round(tracks_to_cm(hybrid.side_length()), 2),
                round(wire_delay_ratio(n, L), 2),
                round(hybrid_advantage(n, L), 2),
            ]
        )
    print(table.render())

    crossover = find_crossover(L)
    print(f"\nUS-I overtakes US-II (wire delay) at n* = {crossover}"
          f"  — the paper predicts Θ(L²) = Θ({L * L})")

    best, sweep = optimal_cluster_size(4096, L)
    print(f"optimal hybrid cluster at n=4096: C* = {best} (paper: Θ(L) = Θ({L}))")

    bw_table = Table(
        ["M(n)", "US-I side (cm) @ n=4096", "vs M=0"],
        title="Memory bandwidth pressure (the Section 7 'dominating factor')",
    )
    base = Ultrascalar1Layout(4096, L).side_length()
    for exponent in (0.0, 0.5, 0.75, 1.0):
        layout = Ultrascalar1Layout(4096, L, bandwidth=bandwidth_power(exponent))
        side = layout.side_length()
        bw_table.add_row(
            [f"n^{exponent}", round(tracks_to_cm(side), 2), f"{side / base:.2f}x"]
        )
    print()
    print(bw_table.render())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 32)
