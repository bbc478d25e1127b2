"""Experiment E6 — the Section 3 side-length recurrence by M(n) regime.

X(n) = Θ(√n L)           when M(n) = O(n^(1/2-eps))  [Case 1]
X(n) = Θ(√n (L + log n)) when M(n) = Θ(n^(1/2))      [Case 2]
X(n) = Θ(√n L + M(n))    when M(n) = Ω(n^(1/2+eps))  [Case 3]

and W(n) = Θ(X(n)).  "Our analytical results show that memory bandwidth
is the dominating factor in the design of large-scale processors."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.fitting import fit_exponent
from repro.analysis.regimes import classify_exponent
from repro.network.fattree import bandwidth_power
from repro.util.tables import Table
from repro.vlsi.htree_layout import Ultrascalar1Layout


@dataclass
class MemoryBwResult:
    """Side-length sweeps per bandwidth exponent."""

    sizes: list[int]
    L: int
    #: m_exponent -> [(n, X(n))]
    sweeps: dict[float, list[tuple[int, float]]]
    #: m_exponent -> fitted exponent of X in n
    fitted: dict[float, float]
    #: m_exponent -> W(n)/X(n) at the largest n
    wire_over_side: dict[float, float]

    def exponents_match_paper(self) -> bool:
        """Case 1/2 fit 0.5 and Case 3 with exponent e fits max(0.5, e),
        each within 0.1."""
        for m_exp, fitted in self.fitted.items():
            expected = max(0.5, m_exp)
            if abs(fitted - expected) > 0.1:
                return False
        return True

    def wire_tracks_side(self) -> bool:
        """W(n) = Θ(X(n)): the ratio stays within a small constant."""
        return all(0.2 <= r <= 3.0 for r in self.wire_over_side.values())


def run() -> MemoryBwResult:
    """Sweep the Ultrascalar I layout over M(n) = n^e for several e.

    The Θ-bounds are asymptotic: for Case 3 the M(n) term only dominates
    once n^e outgrows √n·L, so the fitted exponent is the *tail* slope
    over the largest two decades of the sweep (the paper's claim is
    about exactly that asymptotic regime).
    """
    sizes = [4**k for k in range(3, 15)]  # 64 .. 268M (arithmetic only)
    L = 32
    sweeps: dict[float, list[tuple[int, float]]] = {}
    fitted: dict[float, float] = {}
    wire_over_side: dict[float, float] = {}
    for m_exp in [0.0, 0.25, 0.5, 0.75, 1.0]:
        bandwidth = bandwidth_power(m_exp)
        series = []
        for n in sizes:
            layout = Ultrascalar1Layout(n, L, bandwidth=bandwidth)
            series.append((n, layout.side_length()))
        sweeps[m_exp] = series
        tail = series[-4:]
        fitted[m_exp] = fit_exponent([n for n, _ in tail], [x for _, x in tail])
        largest = Ultrascalar1Layout(sizes[-1], L, bandwidth=bandwidth)
        wire_over_side[m_exp] = largest.root_to_leaf_wire() / largest.side_length()
    return MemoryBwResult(
        sizes=sizes, L=L, sweeps=sweeps, fitted=fitted, wire_over_side=wire_over_side
    )


def report() -> str:
    """The E6 table: measured exponents per regime."""
    outcome = run()
    table = Table(
        ["M(n) = n^e", "paper case", "X(n) exponent (measured)", "expected", "W/X at max n"],
        title=f"E6 — Ultrascalar I side-length X(n) growth by memory regime (L={outcome.L})",
    )
    for m_exp, fitted in outcome.fitted.items():
        regime = classify_exponent(m_exp)
        expected = max(0.5, m_exp)
        table.add_row(
            [
                f"e={m_exp}",
                regime.value,
                round(fitted, 3),
                expected,
                round(outcome.wire_over_side[m_exp], 2),
            ]
        )
    return table.render()
