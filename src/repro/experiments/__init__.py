"""Experiment drivers: one module per paper table/figure (see DESIGN.md §4).

Each module exposes a ``run(...)`` function returning structured results
and a ``report(...)`` / ``main()`` that renders the paper-shaped table.
``tests/golden/`` pins each default report byte-for-byte, and the
matching ``Test<Experiment>`` class under ``tests/unit/`` asserts the
paper's qualitative claims on the default sweep (who wins, by what
factor, where the crossovers fall).
"""

from repro.experiments import (
    cluster_sweep,
    crossover,
    dominance_map,
    fig3_timing,
    fig11_table,
    fig12_layout,
    gate_depth,
    ilp_limits,
    ipc_equivalence,
    performance_projection,
    memory_bw,
    one_cm_chip,
    selftimed,
    three_d,
    window_vs_issue,
)

__all__ = [
    "cluster_sweep",
    "crossover",
    "dominance_map",
    "fig3_timing",
    "fig11_table",
    "fig12_layout",
    "gate_depth",
    "ilp_limits",
    "ipc_equivalence",
    "performance_projection",
    "memory_bw",
    "one_cm_chip",
    "selftimed",
    "three_d",
    "window_vs_issue",
]
