"""Experiment E8 — the self-timed back-of-the-envelope argument.

"A back-of-the envelope calculation is promising however: Half of the
communications paths from one station to its successor are completely
local.  In such a processor, a program could run faster if most of its
instructions depend on their immediate predecessors rather than on
far-previous instructions."

We census, in the H-tree, the tree distance (and routed wire length)
between every station and its ring successor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.htree import successor_tree_distances, successor_wire_lengths
from repro.util.tables import Table


@dataclass
class SelfTimedResult:
    """Per-n locality census."""

    #: n -> fraction of successor hops with LCA at level <= 1 (local)
    local_fraction: dict[int, float]
    #: n -> mean routed successor wire length (leaf units)
    mean_wire: dict[int, float]
    #: n -> max routed successor wire length
    max_wire: dict[int, float]

    def at_least_half_local(self) -> bool:
        """The paper's "half ... are completely local" claim."""
        return all(fraction >= 0.5 for fraction in self.local_fraction.values())


def run() -> SelfTimedResult:
    """Census successor locality for each H-tree size."""
    local: dict[int, float] = {}
    mean_wire: dict[int, float] = {}
    max_wire: dict[int, float] = {}
    for n in [16, 64, 256, 1024]:
        distances = successor_tree_distances(n)
        local[n] = sum(1 for d in distances if d <= 1) / n
        lengths = successor_wire_lengths(n)
        mean_wire[n] = sum(lengths) / n
        max_wire[n] = max(lengths)
    return SelfTimedResult(local_fraction=local, mean_wire=mean_wire, max_wire=max_wire)


def report() -> str:
    """The locality table."""
    outcome = run()
    table = Table(
        ["n", "local successor hops", "mean wire (leaf units)", "max wire"],
        title="E8 — station→successor locality in the H-tree "
        "(paper: at least half the paths are completely local)",
    )
    for n in outcome.local_fraction:
        table.add_row(
            [
                n,
                f"{outcome.local_fraction[n] * 100:.0f}%",
                round(outcome.mean_wire[n], 2),
                round(outcome.max_wire[n], 1),
            ]
        )
    return table.render()
