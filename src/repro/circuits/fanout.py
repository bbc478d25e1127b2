"""Buffer fan-out trees (the F nodes of the paper's Figure 8).

The Ultrascalar II avoids broadcasting register numbers and bindings
along Θ(n + L) wires by fanning them out "through a tree of buffers
(i.e., one-input gates that compute the identity)", reducing the fan-out
gate delay from Θ(n + L) to Θ(log(n + L)).

:class:`FanoutShape` lists a tree's buffers in pre-order (each buffer,
then its subtree); a circuit derives it once per ``(copies, radix)`` and
builds it per source, each tree one ``Netlist.add_gates`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import GateKind, Net, Netlist


@dataclass(frozen=True)
class FanoutTree:
    """A constructed fan-out tree: one source, ``copies`` buffered leaf nets."""

    source: Net
    leaves: tuple[Net, ...]
    depth: int


@dataclass(frozen=True)
class FanoutShape:
    """A balanced fan-out tree's buffers, in pre-order.

    Each tree node is a BUF gate with fan-out at most *radix*, so the
    depth is ``ceil(log_radix(copies))`` gate delays.  (A naive broadcast
    has gate depth 1 but unbounded electrical fan-out; the paper's
    gate-delay model charges bounded fan-out, which the tree restores.)
    A node serving ``k > 1`` copies splits them over ``min(radix, k)``
    children as evenly as possible, larger shares first.
    """

    depth: int
    #: per buffer, its input: 0 for the source, i for buffer ``drivers[i - 1]``
    feeds: list[int]
    drivers: list[int]
    #: per copy, the buffer delivering it
    leaves: list[int]

    @classmethod
    def derive(cls, copies: int, radix: int = 2) -> FanoutShape:
        """Walk the tree for *copies* copies with an explicit stack."""
        if copies < 1:
            raise ValueError("need at least one copy")
        if radix < 2:
            raise ValueError("radix must be >= 2")

        def shares(k: int) -> list[int]:  # last share first, to pop first
            parts = min(radix, k)
            return [k // parts + (i < k % parts) for i in reversed(range(parts))]

        feeds: list[int] = []
        drivers: list[int] = []
        leaves: list[int] = []
        depth = 0
        stack = [(0, share, 1) for share in shares(copies)] if copies > 1 else []
        while stack:  # (feed, copies served, depth) of the next buffer in pre-order
            feed, k, level = stack.pop()
            feeds.append(feed)
            if k == 1:
                leaves.append(len(feeds) - 1)
                depth = max(depth, level)
            else:
                drivers.append(len(feeds) - 1)
                stack += [(len(drivers), share, level + 1) for share in shares(k)]
        return cls(depth, feeds, drivers, leaves)

    def build(self, netlist: Netlist, source: Net) -> FanoutTree:
        """Fan *source* out through these buffers, added as one run; a
        single copy is the source itself (depth 0)."""
        if not self.feeds:
            return FanoutTree(source=source, leaves=(source,), depth=0)
        first = netlist.net_count
        inputs = [(source,), *[(first + b,) for b in self.drivers]]
        outs = netlist.add_gates(GateKind.BUF, list(map(inputs.__getitem__, self.feeds)))
        leaves = tuple(map(outs.__getitem__, self.leaves))
        return FanoutTree(source=source, leaves=leaves, depth=self.depth)
