"""The complete Ultrascalar I register datapath as one netlist (Figure 4).

This assembles, at gate level, everything Section 2 describes:

* one copy-operator CSPP tree per logical register, carrying
  (value, ready) from each writer to all younger readers, with the
  oldest station inserting the committed register file;
* per-station *modified* bits driving the CSPP segment inputs ("the
  decode logic generates a modified bit for every logical register");
  the oldest station marks every register modified;
* the three 1-bit AND-operator CSPP sequencing circuits of Figure 5:
  all-earlier-finished (oldest tracking / deallocation),
  all-earlier-stores-finished (load ordering), and
  all-earlier-loads-and-stores-finished (store ordering).

The construction is validated against the behavioural register-view
walk used by :class:`repro.ultrascalar.ring.RingProcessor`, closing the
loop between the circuit level and the processor model.  Only the tests
build it, so it lives beside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuits.cspp import CsppTree
from repro.circuits.netlist import GateKind, Net, Netlist, bus_value
from repro.circuits.prefix import CopyOp, ScanOp


class AndOp(ScanOp):
    """The 1-bit AND operator of the paper's Figure 5 sequencing circuits."""

    width = 1

    def combine(self, netlist: Netlist, a: list[Net], b: list[Net]) -> list[Net]:
        return [netlist.add_gate(GateKind.AND, a[0], b[0])]


@dataclass(frozen=True)
class StationSnapshot:
    """One station's datapath-relevant state for a settling step.

    Attributes:
        writes_register: destination register or ``None``.
        result: computed result value (meaningful when ``done``).
        done: has the instruction finished (ready bit high).
        finished_store: condition input for the store-ordering CSPP.
        finished_memory: condition input for the load/store-ordering CSPP.
    """

    writes_register: int | None
    result: int
    done: bool
    finished_store: bool = True
    finished_memory: bool = True


@dataclass
class DatapathOutputs:
    """Settled outputs of one datapath step."""

    #: per station, per register: (value, ready)
    incoming: list[list[tuple[int, bool]]]
    #: per station: every older station finished
    all_earlier_done: list[bool]
    #: per station: every older store finished
    stores_done: list[bool]
    #: per station: every older memory op finished
    memory_done: list[bool]
    #: total settle time over all component circuits (gate delays)
    settle_time: int
    #: total gates across all component circuits
    gate_count: int


class Ultrascalar1Datapath:
    """The full register datapath for *n* stations, *L* registers.

    One netlist per register CSPP plus three sequencing CSPPs.  (The
    paper lays these out as separate parallel-prefix trees sharing the
    H-tree, so separate netlists are the faithful structure; their
    settle times are concurrent, and :meth:`step` reports the maximum.)
    """

    def __init__(self, n: int, num_registers: int, value_bits: int = 8, radix: int = 2):
        if n < 1 or num_registers < 1 or value_bits < 1:
            raise ValueError("n, L and value_bits must be positive")
        self.n = n
        self.L = num_registers
        self.value_bits = value_bits
        # payload: value bits + ready bit
        self.register_trees = [
            CsppTree(n, op=CopyOp(value_bits + 1), radix=radix, name=f"reg{r}")
            for r in range(num_registers)
        ]
        self.done_tree = CsppTree(n, op=AndOp(), radix=radix, name="done")
        self.store_tree = CsppTree(n, op=AndOp(), radix=radix, name="stores")
        self.memory_tree = CsppTree(n, op=AndOp(), radix=radix, name="memops")

    @property
    def gate_count(self) -> int:
        """Total gates across every component circuit."""
        trees = [*self.register_trees, self.done_tree, self.store_tree, self.memory_tree]
        return sum(tree.gate_count for tree in trees)

    def _payload(self, value: int, ready: bool) -> int:
        mask = (1 << self.value_bits) - 1
        return (value & mask) | (int(ready) << self.value_bits)

    def _unpack(self, payload: int) -> tuple[int, bool]:
        mask = (1 << self.value_bits) - 1
        return payload & mask, bool(payload >> self.value_bits)

    def step(
        self,
        stations: Sequence[StationSnapshot | None],
        oldest: int,
        committed_registers: Sequence[int],
    ) -> DatapathOutputs:
        """Settle the whole datapath for one clock cycle's state.

        *stations* is indexed by ring position (``None`` = empty
        station); *oldest* is the ring position inserting the committed
        register file.
        """
        if len(stations) != self.n:
            raise ValueError(f"expected {self.n} stations")
        if len(committed_registers) != self.L:
            raise ValueError(f"expected {self.L} committed registers")
        if not 0 <= oldest < self.n:
            raise ValueError("oldest out of range")

        settle = 0
        incoming: list[list[tuple[int, bool]]] = [
            [(0, False)] * self.L for _ in range(self.n)
        ]
        for r, tree in enumerate(self.register_trees):
            values = []
            segments = []
            for pos, snapshot in enumerate(stations):
                writes_this = snapshot is not None and snapshot.writes_register == r
                if pos == oldest:
                    # the oldest station marks every register modified; it
                    # inserts its own (possibly pending) result for its
                    # destination register and the committed value for the
                    # rest (Figure 1: Station 6 inserts R0's initial value
                    # while its own R3 result is still pending in R3's ring)
                    if writes_this:
                        values.append(self._payload(snapshot.result, snapshot.done))
                    else:
                        values.append(self._payload(committed_registers[r], True))
                    segments.append(True)
                elif writes_this:
                    values.append(self._payload(snapshot.result, snapshot.done))
                    segments.append(True)
                else:
                    values.append(0)
                    segments.append(False)
            result = tree.simulate(values, segments)
            settle = max(settle, result.settle_time)
            for pos in range(self.n):
                incoming[pos][r] = self._unpack(bus_value(result, tree.outputs[pos]))

        def condition(tree: CsppTree, values: list[bool]) -> list[bool]:
            nonlocal settle
            segments = [pos == oldest for pos in range(self.n)]
            result = tree.simulate([int(v) for v in values], segments)
            settle = max(settle, result.settle_time)
            outs = []
            for pos in range(self.n):
                outs.append(result.value_of(tree.outputs[pos][0]))
            # the oldest ignores its wrap-around input: vacuously true
            outs[oldest] = True
            return outs

        done_in = [s is None or s.done for s in stations]
        stores_in = [s is None or s.finished_store for s in stations]
        memory_in = [s is None or s.finished_memory for s in stations]
        return DatapathOutputs(
            incoming=incoming,
            all_earlier_done=condition(self.done_tree, done_in),
            stores_done=condition(self.store_tree, stores_in),
            memory_done=condition(self.memory_tree, memory_in),
            settle_time=settle,
            gate_count=self.gate_count,
        )
