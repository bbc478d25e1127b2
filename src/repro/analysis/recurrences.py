"""Closed-form solutions of the paper's layout recurrences.

The recurrences themselves are evaluated exactly, with the technology
model's constants, by the layouts that obey them
(:class:`repro.vlsi.htree_layout.HTreeLayout`: the Ultrascalar I's
``X(n)`` and the hybrid's ``U(n)``).  This module holds the paper's
solutions, which the layouts are checked against by exponent fitting:

* Ultrascalar I side length ``X(n)`` in the three M(n) cases (Section 3).
* Hybrid side length ``U(n)`` (Section 6); its optimal cluster size is
  :func:`repro.analysis.cluster.analytic_optimal_cluster`.
"""

from __future__ import annotations

import math


def x_closed_form(n: int, L: int, m_exponent: float, m_scale: float = 1.0) -> float:
    """The paper's closed-form X(n) for M(n) = m_scale * n**m_exponent.

    Case 1 (exp < 1/2):  X = Theta(sqrt(n) L)
    Case 2 (exp = 1/2):  X = Theta(sqrt(n) (L + log n))
    Case 3 (exp > 1/2):  X = Theta(sqrt(n) L + M(n))
    """
    if n < 1 or L < 1:
        raise ValueError("n and L must be positive")
    root = math.sqrt(n)
    if m_exponent < 0.5:
        return root * L
    if m_exponent == 0.5:
        return root * (L + math.log2(max(2, n)))
    return root * L + m_scale * n**m_exponent


def u_closed_form(n: int, cluster_size: int, L: int, m_exponent: float,
                  m_scale: float = 1.0) -> float:
    """The paper's hybrid solution
    ``U(n) = Theta(M(n) + L sqrt(n)/sqrt(C) + sqrt(n C))`` for n >= C."""
    if n < cluster_size:
        raise ValueError("need n >= cluster_size")
    return (
        m_scale * n**m_exponent
        + L * math.sqrt(n) / math.sqrt(cluster_size)
        + math.sqrt(n * cluster_size)
    )
