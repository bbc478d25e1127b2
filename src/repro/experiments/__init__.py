"""Experiment drivers: one module per paper table/figure (see DESIGN.md §4).

Each module exposes a ``run()`` returning structured results and a
``report()`` that renders the paper-shaped table; both take no
arguments, and ``python -m repro <key>`` is the one way to run a single
experiment.
``tests/golden/`` pins each report byte-for-byte, and the matching
``Test<Experiment>`` class under ``tests/unit/`` asserts the paper's
qualitative claims on the experiment's sweep (who wins, by what
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
