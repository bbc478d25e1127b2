"""H-tree geometry: the station-to-successor distance census.

The Ultrascalar I floorplan (the paper's Figure 6) arranges ``n``
execution stations in a two-dimensional matrix connected "exclusively
via networks layed out with H-tree layouts": a 4-way recursive
decomposition in which each quadrant holds a contiguous quarter of the
stations.  This module censuses, over that layout, the distance from
each station to its ring successor, the basis of the paper's self-timed
back-of-the-envelope argument ("Half of the communications paths from
one station to its successor are completely local").

Tree distances come from :func:`repro.util.bitops.tree_level_distance`,
the one H-tree distance the ring's self-timed knob and the hop
telemetry also use.  The parametric area model that assigns physical
sizes to tree nodes lives in :mod:`repro.vlsi.htree_layout`; here wire
lengths are in *leaf units* (unit spacing between adjacent stations).
"""

from __future__ import annotations

from repro.util.bitops import tree_level_distance


def _require_power_of_4(n: int) -> None:
    if n < 1 or (n & (n - 1)) or (n.bit_length() - 1) % 2:
        raise ValueError(f"H-tree needs a power of 4 number of leaves, got {n}")


def successor_tree_distances(n: int) -> list[int]:
    """H-tree levels between each station and its ring successor (cyclic).

    ``result[i]`` is the height of the lowest common ancestor of
    stations ``i`` and ``(i+1) % n``.  The paper's self-timed argument
    observes that for a contiguous H-tree assignment most successor
    paths stay inside small subtrees: 3/4 of the hops stay within a
    quadrant of every level — so "half of the communications paths ...
    are completely local" is conservative.
    """
    _require_power_of_4(n)
    return [tree_level_distance(i, (i + 1) % n) for i in range(n)]


def successor_wire_lengths(n: int) -> list[float]:
    """Routed wire length station → successor through the H-tree, leaf units.

    A signal climbs to the lowest common ancestor and back down.  The
    hop at level ``k`` spans half the side of a ``4**k``-leaf subtree,
    ``2**(k-1)`` leaf units, so a successor ``l`` levels away is
    ``2 * (2**0 + ... + 2**(l-1)) = 2 * (2**l - 1)`` leaf units off.
    """
    return [2.0 * (2**level - 1) for level in successor_tree_distances(n)]
