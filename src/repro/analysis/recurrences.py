"""The closed-form solution of the hybrid's layout recurrence.

The recurrences themselves are evaluated exactly, with the technology
model's constants, by the layouts that obey them
(:class:`repro.vlsi.htree_layout.HTreeLayout`: the Ultrascalar I's
``X(n)`` and the hybrid's ``U(n)``).  This module holds the paper's
solution for the hybrid side length ``U(n)`` (Section 6), which E5
sweeps over cluster sizes; its optimal cluster size is
:func:`repro.analysis.cluster.analytic_optimal_cluster`.
"""

from __future__ import annotations

import math


def u_closed_form(n: int, cluster_size: int, L: int) -> float:
    """The paper's hybrid solution
    ``U(n) = Theta(M(n) + L sqrt(n)/sqrt(C) + sqrt(n C))`` for n >= C,
    with the register-datapath layouts' constant ``M(n) = 1``."""
    if n < cluster_size:
        raise ValueError("need n >= cluster_size")
    return (
        1.0
        + L * math.sqrt(n) / math.sqrt(cluster_size)
        + math.sqrt(n * cluster_size)
    )
