"""Register-number equality comparators (the paper's Figure 7/8 crosspoints).

Each Ultrascalar II crosspoint compares a column's requested register
number with a row's written register number.  The comparator is built
from per-bit XNORs followed by an AND reduction tree, giving gate depth
``1 + ceil(log2(bits))`` — the paper's "additional O(log log L) gate
delay" for ``bits = ceil(log2 L)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.netlist import GateKind, GateRun, Net, reduction_pairs

_BUF, _NOT = GateKind.BUF, GateKind.NOT


def register_number_bits(num_registers: int) -> int:
    """Bits needed to name one of *num_registers* registers (min 1)."""
    if num_registers < 1:
        raise ValueError("need at least one register")
    return max(1, (num_registers - 1).bit_length())


class ComparatorPlan:
    """Plans *width*-bit comparators into a :class:`GateRun`: per-bit gates,
    then an AND tree whose last gate drives the match.  The tree's shape
    is derived once per plan, so each comparator costs only its gates."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("cannot compare zero-width buses")
        self.width = width
        self._tree, _ = reduction_pairs(range(width), width)
        self._and = [GateKind.AND] * len(self._tree)
        self._equal = [GateKind.XNOR] * width + self._and
        self._match: dict[int, list[GateKind]] = {}  # per constant

    def _place(self, run: GateRun, kinds: list[GateKind], bits: list[tuple[Net, ...]]) -> Net:
        if len(bits) != self.width:
            raise ValueError("bus widths differ")
        first = run.first + len(run.inputs)
        return run.plan(kinds, [*bits, *[(first + a, first + b) for a, b in self._tree]])

    def equal(self, run: GateRun, a: Sequence[Net], b: Sequence[Net]) -> Net:
        """Plan ``a == b``, an XNOR per bit pair; returns the match net."""
        if len(a) != len(b):
            raise ValueError("bus widths differ")
        return self._place(run, self._equal, list(zip(a, b)))

    def match(self, run: GateRun, a: Sequence[Net], constant: int) -> Net:
        """Plan ``a == constant``, a BUF per set bit and a NOT per clear bit."""
        kinds = self._match.get(constant)
        if kinds is None:
            bits = [_BUF if (constant >> i) & 1 else _NOT for i in range(self.width)]
            kinds = self._match[constant] = bits + self._and
        return self._place(run, kinds, list(zip(a)))
