"""The Section 7 dominance analysis.

"For smaller processors (n < O(L²)) the Ultrascalar II dominates the
Ultrascalar I by a factor of Θ(L/√n), but for larger processors the
Ultrascalar I dominates the Ultrascalar II.  In fact, for large
processors (n = Ω(L)) with low memory bandwidths ... the Ultrascalar I
wire delays beat the Ultrascalar II by a factor of √n/L, and the hybrid
beats the Ultrascalar I by an additional factor of √L."
"""

from __future__ import annotations

from repro.vlsi.grid_layout import Ultrascalar2Layout
from repro.vlsi.htree_layout import Ultrascalar1Layout
from repro.vlsi.hybrid_layout import HybridLayout


def wire_delay_ratio(n: int, L: int) -> float:
    """Ultrascalar I critical wire / Ultrascalar II critical wire at (n, L).

    > 1 means the Ultrascalar II wins (shorter wires); < 1 means the
    Ultrascalar I wins.
    """
    us1 = Ultrascalar1Layout(n, L)
    us2 = Ultrascalar2Layout(n, L, variant="linear")
    return us1.critical_wire / us2.critical_wire


def find_crossover(L: int) -> int | None:
    """Smallest power-of-4 n at which the Ultrascalar I's wires get shorter.

    The paper predicts the crossover at n = Θ(L²).  Returns ``None`` if
    no crossover occurs up to n = 2^22.
    """
    n = 4
    while n <= 1 << 22:
        if wire_delay_ratio(n, L) < 1.0:
            return n
        n *= 4
    return None


def hybrid_advantage(n: int, L: int) -> float:
    """Ultrascalar I critical wire / hybrid critical wire at (n, L), with
    clusters of L stations (halved until they divide n).

    The paper predicts Θ(√L) for n = Ω(L) at low memory bandwidth.
    """
    c = max(1, L)
    while n % c:
        c //= 2
    us1 = Ultrascalar1Layout(n, L)
    hybrid = HybridLayout(n, c, L)
    return us1.critical_wire / hybrid.critical_wire
