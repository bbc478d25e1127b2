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


def u_closed_form(n: int, cluster_size: int, L: int, m_exponent: float) -> float:
    """The paper's hybrid solution
    ``U(n) = Theta(M(n) + L sqrt(n)/sqrt(C) + sqrt(n C))`` for n >= C."""
    if n < cluster_size:
        raise ValueError("need n >= cluster_size")
    return (
        n**m_exponent
        + L * math.sqrt(n) / math.sqrt(cluster_size)
        + math.sqrt(n * cluster_size)
    )
