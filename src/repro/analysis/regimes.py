"""The paper's three memory-bandwidth regimes.

Case 1: M(n) = O(n^(1/2 - eps))   -> X(n) = Theta(sqrt(n) L)
Case 2: M(n) = Theta(n^(1/2))     -> X(n) = Theta(sqrt(n)(L + log n))
Case 3: M(n) = Omega(n^(1/2+eps)) -> X(n) = Theta(sqrt(n) L + M(n))
"""

from __future__ import annotations

import enum


class Regime(enum.Enum):
    """Which of the paper's three cases a bandwidth function falls into."""

    CASE1 = "case1"  # M below sqrt
    CASE2 = "case2"  # M at sqrt
    CASE3 = "case3"  # M above sqrt


def classify_exponent(exponent: float) -> Regime:
    """Classify ``M(n) = n**exponent``."""
    if exponent < 0.5:
        return Regime.CASE1
    if exponent == 0.5:
        return Regime.CASE2
    return Regime.CASE3
