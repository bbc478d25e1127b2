"""The Ultrascalar II register-routing network (Figures 7 and 8).

The network routes each station's arguments from the nearest preceding
writer of the requested register — either an earlier station in the
batch or the initial register file — and produces the batch's outgoing
register values.

Three implementations, all equivalent and property-tested against each
other:

* :func:`route_arguments` — the behavioural reference used by the
  Ultrascalar II processor model.
* :class:`GridNetwork` — the linear-gate-delay netlist of Figure 7:
  per-column comparator + mux chains, settle time Θ(n + L).
* :class:`TreeGridNetwork` — the mesh-of-trees netlist of Figure 8:
  buffer fan-out trees for register numbers and bindings, then a
  segmented *reduction* tree per column ("the tree circuits used here
  are more properly referred to as reduction circuits"), settle time
  Θ(log(n + L)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuits.comparator import ComparatorPlan, register_number_bits
from repro.circuits.fanout import FanoutShape
from repro.circuits.netlist import GateKind, GateRun, Net, Netlist, SimulationResult
from repro.circuits.netlist import assign_bus, bus_value


@dataclass(frozen=True)
class RegisterBinding:
    """A (register, value, ready) triple flowing through the datapath."""

    reg: int
    value: int
    ready: bool


@dataclass(frozen=True)
class RoutedArguments:
    """Result of routing one batch through the Ultrascalar II network."""

    #: per station, per read port: (value, ready)
    arguments: list[list[tuple[int, bool]]]
    #: final (value, ready) per logical register after the whole batch
    outgoing: list[tuple[int, bool]]


def route_arguments(
    num_registers: int,
    initial: Sequence[tuple[int, bool]],
    writes: Sequence[RegisterBinding | None],
    reads: Sequence[Sequence[int]],
) -> RoutedArguments:
    """Behavioural reference for the Ultrascalar II network.

    Args:
        num_registers: ``L``.
        initial: the incoming register file, ``initial[r] = (value, ready)``.
        writes: per station, the register binding it produces (or ``None``
            if the instruction writes no register).  A not-yet-computed
            result is a binding with ``ready=False``.
        reads: per station, the register numbers it requests.

    Station *i*'s argument for register *q* comes from the nearest
    preceding station (j < i, maximal j) writing *q*, else from the
    initial register file.  Outgoing register *r* is the last station
    writing *r*, else its initial value.
    """
    if len(initial) != num_registers:
        raise ValueError("initial register file has wrong size")
    if len(writes) != len(reads):
        raise ValueError("writes and reads must align")
    arguments: list[list[tuple[int, bool]]] = []
    current: list[tuple[int, bool]] = list(initial)
    for binding, requested in zip(writes, reads):
        station_args = []
        for q in requested:
            if not 0 <= q < num_registers:
                raise ValueError(f"register r{q} out of range")
            station_args.append(current[q])
        arguments.append(station_args)
        if binding is not None:
            if not 0 <= binding.reg < num_registers:
                raise ValueError(f"register r{binding.reg} out of range")
            current[binding.reg] = (binding.value, binding.ready)
    return RoutedArguments(arguments=arguments, outgoing=current)


class _GridBase:
    """Shared input/output plumbing for the two grid netlists."""

    def __init__(
        self,
        n: int,
        num_registers: int,
        reads_per_station: int = 2,
        value_bits: int = 1,
        name: str = "grid",
    ):
        if n < 1:
            raise ValueError("need at least one station")
        self.n = n
        self.L = num_registers
        self.reads_per_station = reads_per_station
        self.value_bits = value_bits
        self.reg_bits = register_number_bits(num_registers)
        self.netlist = Netlist(name=f"{name}(n={n},L={num_registers})")
        nl = self.netlist

        # Initial register file rows: value bits + ready bit per register.
        self.init_values = [
            [nl.add_input(f"{name}_rf{r}[{b}]") for b in range(value_bits)]
            for r in range(num_registers)
        ]
        self.init_ready = [nl.add_input(f"{name}_rfrdy{r}") for r in range(num_registers)]

        # Station write rows: register number, value, ready, plus a
        # "writes anything" bit (instructions with no destination).
        self.write_reg = [
            [nl.add_input(f"{name}_wr{i}[{b}]") for b in range(self.reg_bits)]
            for i in range(n)
        ]
        self.write_values = [
            [nl.add_input(f"{name}_wv{i}[{b}]") for b in range(value_bits)]
            for i in range(n)
        ]
        self.write_ready = [nl.add_input(f"{name}_wrdy{i}") for i in range(n)]
        self.write_enable = [nl.add_input(f"{name}_wen{i}") for i in range(n)]

        # Station read-request columns: register number per read port.
        self.read_reg = [
            [
                [nl.add_input(f"{name}_rd{i}_{p}[{b}]") for b in range(self.reg_bits)]
                for p in range(reads_per_station)
            ]
            for i in range(n)
        ]

        # Filled by subclasses: per station per port (value nets, ready net),
        # and per register the outgoing (value nets, ready net).
        self.arg_values: list[list[list[Net]]] = []
        self.arg_ready: list[list[Net]] = []
        self.out_values: list[list[Net]] = []
        self.out_ready: list[Net] = []

    # -- shared evaluation helpers -------------------------------------

    def _assignments(
        self,
        initial: Sequence[tuple[int, bool]],
        writes: Sequence[RegisterBinding | None],
        reads: Sequence[Sequence[int]],
    ) -> dict[Net, bool]:
        if len(initial) != self.L or len(writes) != self.n or len(reads) != self.n:
            raise ValueError("input shapes do not match the grid")
        assignment: dict[Net, bool] = {}
        for r, (value, ready) in enumerate(initial):
            assign_bus(assignment, self.init_values[r], value)
            assignment[self.init_ready[r]] = bool(ready)
        for i, binding in enumerate(writes):
            reg = binding.reg if binding is not None else 0
            value = binding.value if binding is not None else 0
            ready = binding.ready if binding is not None else False
            enable = binding is not None
            assign_bus(assignment, self.write_reg[i], reg)
            assign_bus(assignment, self.write_values[i], value)
            assignment[self.write_ready[i]] = bool(ready)
            assignment[self.write_enable[i]] = enable
        for i, requested in enumerate(reads):
            if len(requested) != self.reads_per_station:
                raise ValueError(
                    f"station {i}: expected {self.reads_per_station} read ports"
                )
            for p, q in enumerate(requested):
                assign_bus(assignment, self.read_reg[i][p], q)
        return assignment

    def simulate(
        self,
        initial: Sequence[tuple[int, bool]],
        writes: Sequence[RegisterBinding | None],
        reads: Sequence[Sequence[int]],
    ) -> SimulationResult:
        """Run the event-driven simulator on one batch of inputs."""
        return self.netlist.simulate(self._assignments(initial, writes, reads))

    def evaluate(
        self,
        initial: Sequence[tuple[int, bool]],
        writes: Sequence[RegisterBinding | None],
        reads: Sequence[Sequence[int]],
    ) -> RoutedArguments:
        """Settled routed arguments and outgoing register file."""
        result = self.simulate(initial, writes, reads)
        arguments = [
            [
                (bus_value(result, self.arg_values[i][p]), result.value_of(self.arg_ready[i][p]))
                for p in range(self.reads_per_station)
            ]
            for i in range(self.n)
        ]
        outgoing = [
            (bus_value(result, self.out_values[r]), result.value_of(self.out_ready[r]))
            for r in range(self.L)
        ]
        return RoutedArguments(arguments=arguments, outgoing=outgoing)

    @property
    def gate_count(self) -> int:
        """Total gates in the constructed netlist."""
        return self.netlist.gate_count

    def settle_time(
        self,
        initial: Sequence[tuple[int, bool]],
        writes: Sequence[RegisterBinding | None],
        reads: Sequence[Sequence[int]],
    ) -> int:
        """Settle time in gate delays for one batch of inputs."""
        return self.simulate(initial, writes, reads).settle_time


class GridNetwork(_GridBase):
    """The linear-gate-delay grid of Figure 7 (Θ(n + L) settle time).

    Each consumer column serially chains a comparator + mux per visible
    row, from the register-file rows upward through station rows.
    """

    def __init__(self, n: int, num_registers: int, reads_per_station: int = 2,
                 value_bits: int = 1):
        super().__init__(n, num_registers, reads_per_station, value_bits, name="grid")
        nl = self.netlist

        comparator = ComparatorPlan(self.reg_bits)
        unset = [nl.constant(False)] * (self.value_bits + 1)
        for i in range(self.n):
            station_values, station_ready = [], []
            for p in range(self.reads_per_station):
                # Chain through the regfile rows, then station rows < i.
                value_nets, ready_net = self._column(
                    comparator, self.read_reg[i][p], unset, self.L, i
                )
                station_values.append(value_nets)
                station_ready.append(ready_net)
            self.arg_values.append(station_values)
            self.arg_ready.append(station_ready)

        # Outgoing columns: one per register, with a constant request.
        for r in range(self.L):
            request = [
                nl.constant(bool((r >> b) & 1)) for b in range(self.reg_bits)
            ]
            initial = [*self.init_values[r], self.init_ready[r]]
            value_nets, ready_net = self._column(comparator, request, initial, 0, self.n)
            self.out_values.append(value_nets)
            self.out_ready.append(ready_net)

    def _column(self, comparator: ComparatorPlan, request: list[Net], acc: list[Net],
                regfile_rows: int, station_rows: int) -> tuple[list[Net], Net]:
        """One consumer column as one gate run.  Per row, register-file rows
        first: a comparator on the request (ANDed with a station row's write
        enable), then muxes ``match ? row binding : acc`` over the value bits
        and ready bit of the accumulated binding *acc*."""
        run = GateRun(self.netlist)
        and_, row_muxes = GateKind.AND, [GateKind.MUX] * (self.value_bits + 1)
        for row in range(regfile_rows + station_rows):
            if row < regfile_rows:
                match = comparator.match(run, request, row)
                binding = [*self.init_values[row], self.init_ready[row]]
            else:
                j = row - regfile_rows
                eq = comparator.equal(run, request, self.write_reg[j])
                match = run.plan([and_], [(eq, self.write_enable[j])])
                binding = [*self.write_values[j], self.write_ready[j]]
            last = run.plan(row_muxes, [(match, new, old) for new, old in zip(binding, acc)])
            acc = list(range(last + 1 - len(binding), last + 1))
        outs = run.add()
        return outs[-len(acc):-1], outs[-1]


class TreeGridNetwork(_GridBase):
    """The mesh-of-trees grid of Figure 8 (Θ(log(n + L)) settle time).

    Register numbers and bindings fan out through binary buffer trees;
    each consumer column (two read ports per station) reduces its matching
    rows with a balanced segmented reduction tree that selects the highest
    (nearest preceding) match.
    """

    def __init__(self, n: int, num_registers: int, value_bits: int = 1):
        super().__init__(n, num_registers, 2, value_bits, name="tgrid")
        nl = self.netlist
        consumers = n * self.reads_per_station + num_registers

        # Fan each station's binding (reg number, value, ready, enable)
        # out to every consumer column through buffer trees.
        comparator = ComparatorPlan(self.reg_bits)
        to_consumers = FanoutShape.derive(consumers)
        and_ = GateKind.AND
        pair_kinds = [GateKind.MUX] * (value_bits + 1) + [GateKind.OR]

        def fan(net: Net) -> tuple[Net, ...]:
            return to_consumers.build(nl, net).leaves

        fanned_write_reg = [[fan(bit) for bit in self.write_reg[j]] for j in range(n)]
        fanned_write_val = [[fan(bit) for bit in self.write_values[j]] for j in range(n)]
        fanned_write_rdy = [fan(self.write_ready[j]) for j in range(n)]
        fanned_write_en = [fan(self.write_enable[j]) for j in range(n)]

        def row_ports(j: int, consumer: int):
            """Row j's binding as seen by one consumer column."""
            reg = [fanned_write_reg[j][b][consumer] for b in range(self.reg_bits)]
            val = [fanned_write_val[j][b][consumer] for b in range(self.value_bits)]
            return reg, val, fanned_write_rdy[j][consumer], fanned_write_en[j][consumer]

        def build_column(
            request: list[Net], visible_stations: int, consumer: int,
            reg_if_constant: int | None = None, to_rows: FanoutShape | None = None,
        ) -> tuple[list[Net], Net]:
            """Reduction tree over (regfile rows + visible station rows).

            *request* is the raw register-number bus; it is fanned out
            down the column through *to_rows*, a buffer tree with one leaf
            per row that compares against it.  When *reg_if_constant* is
            given (the outgoing-register columns, whose request is empty),
            the register-file portion collapses to the single known-matching
            row.
            """
            rf_rows = 0 if reg_if_constant is not None else self.L
            # per compared row, its request leaves
            rows = list(zip(*[to_rows.build(nl, bit).leaves for bit in request]))

            # One gate run for the rest of the column: each entry is
            # [value nets..., ready net, match net].
            always = nl.constant(True) if reg_if_constant is not None else None
            run = GateRun(nl)
            entries: list[list[Net]] = []
            if reg_if_constant is not None:
                entries.append(
                    [*self.init_values[reg_if_constant], self.init_ready[reg_if_constant], always]
                )
            else:
                # The requested register always matches exactly one
                # register-file row.
                for r in range(self.L):
                    match = comparator.match(run, rows[r], r)
                    entries.append([*self.init_values[r], self.init_ready[r], match])
            for j in range(visible_stations):
                reg, val, rdy, en = row_ports(j, consumer)
                if reg_if_constant is not None:
                    eq = comparator.match(run, reg, reg_if_constant)
                else:
                    eq = comparator.equal(run, rows[rf_rows + j], reg)
                entries.append([*val, rdy, run.plan([and_], [(eq, en)])])
            # Balanced reduction selecting the last matching entry: per
            # pair, the value-bit muxes, the ready mux, then the match OR.
            while len(entries) > 1:
                nxt = []
                for left, right in zip(entries[::2], entries[1::2]):
                    muxes = [(right[-1], r, l) for r, l in zip(right[:-1], left[:-1])]
                    last = run.plan(pair_kinds, [*muxes, (left[-1], right[-1])])
                    nxt.append(list(range(last + 1 - len(pair_kinds), last + 1)))
                if len(entries) % 2:
                    nxt.append(entries[-1])
                entries = nxt
            run.add()
            return entries[0][:-2], entries[0][-2]

        consumer_index = 0
        for i in range(self.n):
            station_values, station_ready = [], []
            to_rows = FanoutShape.derive(self.L + i)  # for each read port
            for p in range(self.reads_per_station):
                value_nets, ready_net = build_column(
                    self.read_reg[i][p], i, consumer_index, to_rows=to_rows
                )
                station_values.append(value_nets)
                station_ready.append(ready_net)
                consumer_index += 1
            self.arg_values.append(station_values)
            self.arg_ready.append(station_ready)

        for r in range(self.L):
            value_nets, ready_net = build_column(
                [], self.n, consumer_index, reg_if_constant=r
            )
            self.out_values.append(value_nets)
            self.out_ready.append(ready_net)
            consumer_index += 1
