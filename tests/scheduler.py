"""Prioritized shared-ALU scheduling via cyclic prefix (Ultrascalar Memo 2).

The paper replicates an ALU per station but notes: "In practice, ALUs
can be effectively shared ... We have shown how to implement efficient
scheduling logic for a superscalar processor that shares ALUs [6]" and
"We know how to separate the two parameters [window size and issue
width] by issuing instructions to a smaller pool of shared ALUs.  Our
ALU scheduling circuitry ... fits within the bounds described here."

The scheduler grants up to ``k`` free ALUs to the *oldest* requesting
stations.  Mechanically it is one more cyclic segmented scan, with the
integer + operator this time: each station's input is its request bit,
the oldest station raises the segment, and a station wins a grant iff
it requests and the count of earlier requests is below the number of
free ALUs.

Both a behavioural function and a gate-level netlist are provided; the
netlist's count scan is a balanced tree of ripple adders, keeping the
Θ(log n) gate-delay bound (times the counter width log k).  The ring
engine schedules shared ALUs behaviourally, oldest first
(``ProcessorConfig.num_alus``); only the tests run this reference
circuit, so it lives beside them.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.netlist import GateKind, Net, Netlist
from repro.circuits.prefix import ScanOp, build_segmented_scan, cyclic_segmented_scan


def prioritized_grants(
    requests: Sequence[bool], oldest: int, num_alus: int
) -> list[bool]:
    """Grant ALUs to the oldest *num_alus* requesting stations.

    Args:
        requests: per ring position, does the station want an ALU.
        oldest: ring position of the oldest station (scan priority origin).
        num_alus: ALUs available this cycle.

    Returns a grant bit per ring position.  The count of earlier
    requests is a cyclic segmented + scan seeded at the oldest station;
    the oldest requester always wins first.
    """
    n = len(requests)
    if not 0 <= oldest < n:
        raise ValueError("oldest out of range")
    if num_alus < 0:
        raise ValueError("num_alus must be non-negative")
    if num_alus == 0 or not any(requests):
        return [False] * n
    segments = [i == oldest for i in range(n)]
    counts = cyclic_segmented_scan(
        [int(r) for r in requests], segments, lambda a, b: a + b
    )
    # counts[i] for the oldest wraps around the whole ring; like every
    # other CSPP, the oldest ignores its incoming value (no older
    # requesters exist).
    grants = []
    for i in range(n):
        earlier = 0 if i == oldest else counts[i]
        grants.append(bool(requests[i]) and earlier < num_alus)
    return grants


class AddOp(ScanOp):
    """Integer + over ``width``-bit buses, built from ripple adders.

    Saturation is unnecessary: the scheduler only compares the count to
    ``k < 2**width``, so the bus width is chosen as ``ceil(log2(n+1))``.
    """

    def __init__(self, width: int):
        self.width = width

    def combine(self, netlist: Netlist, a: list[Net], b: list[Net]) -> list[Net]:
        from repro.circuits.alu import build_ripple_adder

        sums, _carry = build_ripple_adder(netlist, a, b, netlist.constant(False))
        return sums


class SchedulerCircuit:
    """A gate-level prioritized scheduler over *n* stations, *k* ALUs.

    Built as a cyclic segmented + scan (count of earlier requests)
    followed by a per-station ``count < k`` comparator AND request.
    """

    def __init__(self, n: int, num_alus: int):
        if n < 1:
            raise ValueError("need at least one station")
        if num_alus < 1:
            raise ValueError("num_alus must be positive")
        self.n = n
        # more ALUs than stations is indistinguishable from n ALUs
        self.num_alus = min(num_alus, n)
        num_alus = self.num_alus
        self.width = max(1, (n).bit_length())
        self.netlist = Netlist(name=f"scheduler(n={n},k={num_alus})")
        nl = self.netlist

        self.requests = [nl.add_input(f"req{i}") for i in range(n)]
        self.segments = [nl.add_input(f"seg{i}") for i in range(n)]

        # request bit widened to a count bus
        zeros = [nl.constant(False) for _ in range(self.width - 1)]
        values = [[self.requests[i]] + list(zeros) for i in range(n)]

        self.counts: list[list[Net]] = build_segmented_scan(
            nl, values, self.segments, AddOp(self.width)
        )

        # grant[i] = request[i] AND (count[i] < k), with the oldest's
        # wrap-around count overridden to zero by its segment bit.
        self.grants: list[Net] = []
        for i in range(n):
            below = self._build_less_than(self.counts[i], num_alus, self.segments[i])
            self.grants.append(nl.add_gate(GateKind.AND, self.requests[i], below))
            nl.mark_output(f"grant{i}", self.grants[-1])

    def _build_less_than(self, count: list[Net], k: int, is_oldest: Net) -> Net:
        """``(count < k) OR is_oldest`` as gates (unsigned comparison)."""
        nl = self.netlist
        # count < k  <=>  NOT (count >= k); build borrow chain of count - k
        borrow = nl.constant(False)
        for bit_index, bit in enumerate(count):
            k_bit = nl.constant(bool((k >> bit_index) & 1))
            # borrow_out = (~a & (b | borrow)) | (b & borrow), a=count bit, b=k bit... we
            # want count < k i.e. count - k borrows out:
            not_a = nl.add_gate(GateKind.NOT, bit)
            b_or_borrow = nl.add_gate(GateKind.OR, k_bit, borrow)
            term1 = nl.add_gate(GateKind.AND, not_a, b_or_borrow)
            term2 = nl.add_gate(GateKind.AND, k_bit, borrow)
            borrow = nl.add_gate(GateKind.OR, term1, term2)
        # borrow set => count < k
        return nl.add_gate(GateKind.OR, borrow, is_oldest)

    def evaluate(self, requests: Sequence[bool], oldest: int) -> list[bool]:
        """Run the netlist; returns grant bits (checked against behavioural)."""
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} requests")
        if not 0 <= oldest < self.n:
            raise ValueError("oldest out of range")
        assignment: dict[Net, bool] = {}
        for i in range(self.n):
            assignment[self.requests[i]] = bool(requests[i])
            assignment[self.segments[i]] = i == oldest
        result = self.netlist.simulate(assignment)
        return [result.value_of(net) for net in self.grants]

    @property
    def gate_count(self) -> int:
        """Gates in the scheduler netlist."""
        return self.netlist.gate_count
