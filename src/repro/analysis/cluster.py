"""Optimal hybrid cluster size (Section 6).

"To find the value of C that minimizes U(n), one can differentiate and
solve for dU/dC(n) = 0, to conclude that the side-length is minimized
when C = Θ(L)."  This module provides the analytic minimum and the
closed-form sweep over C; experiment E5 sweeps the layout model for the
empirical minimum.
"""

from __future__ import annotations

from repro.analysis.recurrences import u_closed_form


def analytic_optimal_cluster(L: int) -> float:
    """Minimize U(C) = L sqrt(n)/sqrt(C) + sqrt(n C) over continuous C.

    dU/dC = 0 gives C = L exactly (the n factors cancel), the paper's
    C = Θ(L).
    """
    if L < 1:
        raise ValueError("L must be positive")
    return float(L)


def closed_form_sweep(n: int, L: int) -> dict[int, float]:
    """U(C) from the closed form over power-of-two cluster sizes, at
    M(n) = O(1)."""
    sides: dict[int, float] = {}
    c = 1
    while c <= n:
        sides[c] = u_closed_form(n, c, L)
        c *= 2
    return sides
