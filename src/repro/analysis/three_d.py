"""The Section 7 three-dimensional packaging bounds.

"In a true three-dimensional packaging technology the Ultrascalar
bounds do improve because, intuitively, there is more space in three
dimensions than in two":

* Ultrascalar I, small M(n): volume Θ(n L^(3/2)), wire Θ(n^(1/3) L^(1/2));
  large M(n) = Ω(n^(2/3+eps)) adds volume Θ(M(n)^(3/2)).
* Ultrascalar II: volume O(n² + L²) for both linear- and log-depth
  circuits (no extra log factor, unlike 2-D).
* Hybrid, small M(n): optimal cluster Θ(L^(3/4)); volume O(n L^(3/4))
  (versus area Θ(n L) in two dimensions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.util.tables import Table


@dataclass(frozen=True)
class ThreeDBound:
    """One 3-D bound: formula string + evaluable Θ-expression."""

    processor: str
    quantity: str
    formula: str
    evaluate: Callable[[float, float, float], float]  # (n, L, M) -> value


THREE_D_BOUNDS: tuple[ThreeDBound, ...] = (
    ThreeDBound(
        "ultrascalar1", "volume", "Θ(n L^(3/2))",
        lambda n, L, M: n * L**1.5,
    ),
    ThreeDBound(
        "ultrascalar1", "wire_delay", "Θ(n^(1/3) L^(1/2))",
        lambda n, L, M: n ** (1.0 / 3.0) * math.sqrt(L),
    ),
    ThreeDBound(
        "ultrascalar1", "extra_volume_large_M", "Θ(M(n)^(3/2))",
        lambda n, L, M: M**1.5,
    ),
    ThreeDBound(
        "ultrascalar2", "volume", "O(n² + L²)",
        lambda n, L, M: n**2 + L**2,
    ),
    ThreeDBound(
        "hybrid", "optimal_cluster", "Θ(L^(3/4))",
        lambda n, L, M: L**0.75,
    ),
    ThreeDBound(
        "hybrid", "volume", "O(n L^(3/4))",
        lambda n, L, M: n * L**0.75,
    ),
)


def lookup(processor: str, quantity: str) -> ThreeDBound:
    """Fetch one 3-D bound; raises KeyError when absent."""
    for bound in THREE_D_BOUNDS:
        if bound.processor == processor and bound.quantity == quantity:
            return bound
    raise KeyError(f"no 3-D bound for ({processor}, {quantity})")


def three_d_table(n: int = 4096) -> Table:
    """Render the 3-D bounds with example values at n, L = 32 and M = 0."""
    L = 32
    table = Table(
        ["Processor", "Quantity", "Bound", f"value @ n={n}, L={L}"],
        title="Section 7 — three-dimensional packaging bounds",
    )
    for bound in THREE_D_BOUNDS:
        table.add_row(
            [bound.processor, bound.quantity, bound.formula,
             bound.evaluate(n, L, 0.0)]
        )
    return table


def volume_improvement_2d_to_3d(n: int, L: int) -> float:
    """Hybrid footprint gain from 3-D: area Θ(n L) vs volume Θ(n L^(3/4)).

    Returns the 2-D-area : 3-D-volume ratio Θ(L^(1/4)).
    """
    if n < 1 or L < 1:
        raise ValueError("n and L must be positive")
    return (n * L) / (n * L**0.75)
