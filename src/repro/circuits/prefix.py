"""Segmented parallel-prefix (scan) circuits: semantics and netlists.

The paper builds everything from segmented scans:

* The Ultrascalar I register datapath is a *cyclic* segmented scan with
  the copy operator ``a (x) b = a`` (the nearest earlier writer's value
  propagates); see :mod:`repro.circuits.cspp`.
* The instruction-sequencing circuits (oldest-station tracking,
  load/store ordering, branch commit) are cyclic segmented scans with
  the AND operator (Figure 5).
* The Ultrascalar II columns are *noncyclic* segmented scans with the
  copy operator, with the comparator match bits as segment bits
  (Figure 7/8).
* The shared-ALU scheduler of Memo 2 is one more cyclic segmented scan,
  with the + operator (:mod:`repro.ultrascalar.scheduler`).

This module defines the reference semantics of the cyclic scan
(:func:`cyclic_segmented_scan`, against which every CSPP netlist is
property-tested) and :func:`build_segmented_scan`, the one
up/down-sweep tree (Θ(log n) delay) that every prefix-tree netlist is
built from.  The netlists are used to *measure* the paper's gate-delay
claims.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.circuits.netlist import GateKind, Net, Netlist

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Reference (behavioural) semantics
# ---------------------------------------------------------------------------


def cyclic_segmented_scan(
    xs: Sequence[T],
    segments: Sequence[bool],
    op: Callable[[T, T], T],
) -> list[T]:
    """Cyclic segmented scan: the behavioural model of the CSPP circuits.

    ``y[i]`` reduces ``x[j] .. x[i-1]`` taken cyclically, with ``j`` the
    nearest *cyclically* preceding position whose segment bit is set.
    Requires at least one segment bit (in the Ultrascalar the oldest
    station always raises its segment bits, so this always holds).
    """
    n = len(xs)
    if len(segments) != n:
        raise ValueError("xs and segments must have equal length")
    if not any(segments):
        raise ValueError("cyclic segmented scan requires at least one segment bit")
    start = max(i for i in range(n) if segments[i])
    ys: list[T | None] = [None] * n
    acc = xs[start]
    for k in range(1, n + 1):
        i = (start + k) % n
        ys[i] = acc
        acc = xs[i] if segments[i] else op(acc, xs[i])
    return ys  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Netlist builders
# ---------------------------------------------------------------------------


class ScanOp:
    """Gate-level description of an associative operator for scan netlists."""

    #: payload width in bits
    width: int = 1

    def combine(self, netlist: Netlist, a: list[Net], b: list[Net]) -> list[Net]:
        """Build gates computing ``a (x) b``; returns the output nets."""
        raise NotImplementedError


class AndOp(ScanOp):
    """The 1-bit AND operator of the paper's Figure 5 sequencing circuits."""

    width = 1

    def combine(self, netlist: Netlist, a: list[Net], b: list[Net]) -> list[Net]:
        return [netlist.add_gate(GateKind.AND, a[0], b[0])]


class CopyOp(ScanOp):
    """The copy operator ``a (x) b = a`` used by the register datapaths.

    Combining is free (wires); all cost is in the segment muxes the scan
    builders insert.
    """

    def __init__(self, width: int = 1):
        self.width = width

    def combine(self, netlist: Netlist, a: list[Net], b: list[Net]) -> list[Net]:
        return list(a)


def _mux_bus(netlist: Netlist, sel: Net, a: list[Net], b: list[Net]) -> list[Net]:
    """Per-bit ``sel ? a : b``."""
    return [netlist.mux(sel, ai, bi) for ai, bi in zip(a, b)]


def build_segmented_scan(
    netlist: Netlist,
    values: Sequence[list[Net]],
    segments: Sequence[Net],
    op: ScanOp,
    radix: int = 2,
) -> list[list[Net]]:
    """Segmented scan tree over caller-supplied nets: Θ(log n) gate delay.

    Each node splits its range into up to *radix* contiguous chunks of
    ``ceil(count / radix)`` positions.  The up-sweep folds the children's
    summaries ``(v, s)`` left to right with ``v = s_r ? v_r : (v (x) v_r)``
    and ``s = s | s_r``; the down-sweep hands each child the prefix of
    everything before it, ``in_next = s_c ? v_c : (in_c (x) v_c)``.

    The root's incoming prefix is the root's own summary: "tying
    together the data lines at the top of the tree and discarding the
    top segment bit" makes the scan cyclic (the CSPP).  Returns the
    per-position output nets.
    """
    summaries: dict[tuple[int, int], tuple[list[Net], Net]] = {}

    def children(lo: int, hi: int) -> list[tuple[int, int]]:
        chunk = -(-(hi - lo) // radix)
        return [(start, min(start + chunk, hi)) for start in range(lo, hi, chunk)]

    def fold(acc: list[Net], v: list[Net], s: Net) -> list[Net]:
        return _mux_bus(netlist, s, v, op.combine(netlist, acc, v))

    def up(lo: int, hi: int) -> tuple[list[Net], Net]:
        if hi - lo == 1:
            summary = (values[lo], segments[lo])
        else:
            first, *rest = children(lo, hi)
            v_acc, s_acc = up(*first)
            for span in rest:
                v, s = up(*span)
                v_acc = fold(v_acc, v, s)
                s_acc = netlist.add_gate(GateKind.OR, s_acc, s)
            summary = (v_acc, s_acc)
        summaries[(lo, hi)] = summary
        return summary

    outputs: list[list[Net]] = [None] * len(values)  # type: ignore[list-item]

    def down(lo: int, hi: int, incoming: list[Net]) -> None:
        if hi - lo == 1:
            outputs[lo] = incoming
            return
        spans = children(lo, hi)
        for span in spans[:-1]:
            down(*span, incoming)
            incoming = fold(incoming, *summaries[span])
        down(*spans[-1], incoming)

    root_v, _root_s = up(0, len(values))
    down(0, len(values), root_v)
    return outputs
