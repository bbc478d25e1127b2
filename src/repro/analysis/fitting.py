"""Log-log growth-exponent fitting.

Used throughout the experiments to turn measured series (settle times,
side lengths, wire lengths) into growth exponents comparable with the
paper's Θ-bounds: fit ``y = a x^k`` by least squares in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LogLogFit:
    """Result of fitting ``y = a * x**exponent``."""

    exponent: float
    scale: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Model value at *x*."""
        return self.scale * x**self.exponent


def _line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line ``y = slope x + intercept``: (slope, intercept, R²).

    R² is 1 when the ys are all equal (there is nothing to explain).
    """
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least two distinct x values")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    total = sum((y - mean_y) ** 2 for y in ys)
    residual = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, 1.0 if total == 0 else 1.0 - residual / total


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> LogLogFit:
    """Least-squares fit in log-log space.

    Raises ``ValueError`` on fewer than two points, non-positive data
    or all-equal xs.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit needs positive data")
    slope, intercept, r_squared = _line([math.log(x) for x in xs], [math.log(y) for y in ys])
    return LogLogFit(exponent=slope, scale=math.exp(intercept), r_squared=r_squared)


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Just the growth exponent of :func:`fit_loglog`."""
    return fit_loglog(xs, ys).exponent

