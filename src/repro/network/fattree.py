"""Fat-tree networks with a cycle-level contention model.

"We propose to connect the Ultrascalar I datapath to an interleaved
data cache and to an instruction trace cache via two fat-tree or
butterfly networks.  This allows one to choose how much bandwidth to
implement by adjusting the fatness of the trees."  (Section 2.)

A :class:`FatTree` over ``n`` leaves assigns each subtree of size ``s``
an uplink capacity ``ceil(M(s))`` for a user-supplied bandwidth
function ``M``; :meth:`FatTree.admit` performs the per-cycle admission:
given competing leaf requests it grants the oldest ones subject to
every uplink capacity on the leaf-to-root path.  The memory system uses
this to throttle loads/stores to the paper's ``M(n)`` memory-bandwidth
envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class FatTreeRouting:
    """Result of one admission round."""

    #: indices (into the request list) granted this cycle, in priority order
    granted: tuple[int, ...]
    #: indices denied because some uplink on their path was saturated
    denied: tuple[int, ...]


class FatTree:
    """A fat-tree over ``n`` leaves with per-subtree uplink capacities.

    Args:
        n: number of leaves (execution stations); must be >= 1.
        bandwidth: the paper's ``M``: subtree size -> words per cycle.
            Evaluated per level; capacities are ``max(1, ceil(M(s)))``
            so that the tree is always connected.
    """

    #: tree arity: 4, matching the H-tree floorplan
    radix = 4

    def __init__(self, n: int, bandwidth: Callable[[int], float]):
        if n < 1:
            raise ValueError("need at least one leaf")
        radix = self.radix
        self.n = n
        self.bandwidth = bandwidth
        # levels[k] = capacity of an uplink out of a subtree of radix**k leaves
        self.num_levels = max(1, math.ceil(math.log(n, radix))) if n > 1 else 1
        self.level_capacity: list[int] = []
        for k in range(self.num_levels):
            subtree = min(n, radix**(k + 1))
            self.level_capacity.append(max(1, math.ceil(bandwidth(subtree))))

    def path_groups(self, leaf: int) -> list[tuple[int, int]]:
        """The (level, group) uplinks leaf *leaf* uses to reach the root."""
        if not 0 <= leaf < self.n:
            raise ValueError("leaf index out of range")
        groups = []
        group = leaf
        for level in range(self.num_levels):
            group //= self.radix
            groups.append((level, group))
        return groups

    def admit(self, leaves: Sequence[int]) -> FatTreeRouting:
        """Admit one cycle of requests, oldest (listed first) priority.

        *leaves* lists the requesting leaf per request.  Returns which
        request indices are granted/denied this cycle.  Requests denied
        here retry on a later cycle (the caller keeps its own queue).
        """
        used: dict[tuple[int, int], int] = {}
        granted: list[int] = []
        denied: list[int] = []
        for index, leaf in enumerate(leaves):
            path = self.path_groups(leaf)
            if all(
                used.get(edge, 0) < self.level_capacity[edge[0]] for edge in path
            ):
                for edge in path:
                    used[edge] = used.get(edge, 0) + 1
                granted.append(index)
            else:
                denied.append(index)
        return FatTreeRouting(granted=tuple(granted), denied=tuple(denied))


# -- canonical bandwidth functions (the paper's three regimes) -------------


def bandwidth_constant(total: float = 1.0) -> Callable[[int], float]:
    """M(n) = Θ(1): Case 1 (sublinear, below sqrt)."""
    return lambda s: total


def bandwidth_power(exponent: float) -> Callable[[int], float]:
    """M(n) = n**exponent; exponent selects the paper's case:

    * exponent < 0.5  -> Case 1,  X(n) = Θ(sqrt(n) L)
    * exponent == 0.5 -> Case 2,  X(n) = Θ(sqrt(n) (L + log n))
    * exponent > 0.5  -> Case 3,  X(n) = Θ(sqrt(n) L + M(n))
    """
    return lambda s: float(s) ** exponent


def bandwidth_linear() -> Callable[[int], float]:
    """M(n) = Θ(n): full memory bandwidth (one access per instruction)."""
    return lambda s: float(s)
