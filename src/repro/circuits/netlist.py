"""Single-bit gate netlists with a unit-delay timing simulator.

Representation.  A net is a plain ``int``: its index in the netlist.
Primary inputs and gate outputs share that index space.  A gate is a
row in parallel per-netlist lists (kind code, input-net tuple, driven
net).  Per gate, building allocates an input tuple (sibling
buffers of a fan-out tree share one) and the boxed int of the driven
net, plus a second int when a later gate of its own run reads it.
:meth:`Netlist.add_gates` is the bulk path: it checks a whole run of
gates once (a fan-out tree, or a column of comparators and muxes planned
in a :class:`GateRun`), then extends the lists in one step.  Fan-out is
derived from the gate rows as one linked list of input pins per net,
held in three flat lists however many nets there are, and cached until
the next gate is added or :meth:`Netlist.tie` rewires one.

Simulation measures *settle time*: inputs are applied at time 0 with
every net initialized to 0, and events propagate until the netlist is
quiescent.  Every gate takes one unit, so the simulation is a wavefront:
the gates due at time *t* are those an input of which changed at
*t - 1*.  At time 1 those are the readers of the inputs that are 1, plus
the inverting gates (NOT, NAND, NOR, XNOR), which output 1 from all-0
inputs; no other gate can change then.  Values live in a list indexed by
net; the next wavefront is one list, with a per-gate marker so that a
gate is queued at most once per time step.  For acyclic circuits
the settle time is bounded by the topological critical path; for cyclic
circuits (the mux rings and CSPP trees of the paper, which tie the top
of the tree around) the simulator reaches the unique fixed point
whenever one exists — which the Ultrascalar constructions guarantee by
always having at least one segment bit set (the oldest station's).

Settle times are therefore in "gate delays" — the unit the paper's
complexity results use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Sequence

#: a single-bit wire, identified by its index in its netlist
Net = int


class GateKind(enum.Enum):
    """Supported gate types (all single output)."""

    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"
    MUX = "mux"  # inputs (sel, a, b): sel ? a : b

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python


#: kind codes stored per gate, in GateKind declaration order
_KINDS = tuple(GateKind)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_BUF, _NOT, _AND, _OR, _XOR, _XNOR, _NAND, _NOR, _MUX = range(len(_KINDS))
#: per kind code, 1 if the gate's output is 1 when every input is 0
_INVERTS = tuple(int(code in (_NOT, _XNOR, _NAND, _NOR)) for code in range(len(_KINDS)))

#: (min, max) inputs; every other kind takes 2..64
_ARITY = {GateKind.BUF: (1, 1), GateKind.NOT: (1, 1), GateKind.MUX: (3, 3)}


@dataclass
class SimulationResult:
    """Outcome of a unit-delay simulation run."""

    #: final value of every net, indexed by net
    values: list[bool]
    #: time at which the last net changed value (0 if nothing toggled)
    settle_time: int
    #: number of gate evaluation events processed
    events: int

    def value_of(self, net: Net) -> bool:
        """Final value of *net*."""
        return self.values[net]


class Netlist:
    """A mutable netlist: create inputs, add gates, then simulate.

    The netlist may be cyclic; :meth:`simulate` runs to a fixed point.
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self.inputs: list[Net] = []
        self.outputs: dict[str, Net] = {}
        self._const_cache: dict[bool, Net] = {}
        self._nets = 0
        # per gate: kind code, input nets, driven net
        self._kind: list[int] = []
        self._ins: list[tuple[Net, ...]] = []
        self._out: list[Net] = []
        # inputs and explicitly named gate outputs
        self._names: dict[Net, str] = {}
        self._fanout: tuple[list[int], list[int], list[int]] | None = None

    # -- construction -------------------------------------------------

    def add_input(self, name: str) -> Net:
        """Create a primary-input net."""
        net = self._nets
        self._nets += 1
        self._names[net] = name
        self.inputs.append(net)
        return net

    def add_gate(self, kind: GateKind, *inputs: Net, name: str | None = None) -> Net:
        """Add a gate (a run of one); returns its output net."""
        (out,) = self.add_gates(kind, (inputs,))
        if name is not None:
            self._names[out] = name
        return out

    def add_gates(
        self,
        kind: GateKind | Sequence[GateKind],
        inputs: Sequence[tuple[Net, ...]],
    ) -> list[Net]:
        """Append one gate per input tuple, in order; returns their output nets.

        *kind* is one kind for the whole run or one kind per gate.  The
        run is checked before anything is added, so a bad tuple raises
        ``ValueError`` and leaves the netlist as it was.  Gate *k*
        drives net ``net_count + k``; the netlist stores the returned ints.
        """
        count = len(inputs)
        if isinstance(kind, GateKind):
            shapes = [(kind, arity) for arity in set(map(len, inputs))]
            codes = [_CODE[kind]] * count
        elif len(kind) == count:
            shapes = set(zip(kind, map(len, inputs)))
            codes = list(map(_CODE.__getitem__, kind))
        else:
            raise ValueError(f"{len(kind)} gate kinds for {count} gates")
        for each, arity in shapes:
            lo, hi = _ARITY.get(each, (2, 64))
            if not lo <= arity <= hi:
                raise ValueError(f"{each.value} gate takes {lo}..{hi} inputs, got {arity}")
        first = self._nets
        self._nets += count
        outs = list(range(first, first + count))
        self._kind += codes
        self._ins += inputs
        self._out += outs
        self._fanout = None
        return outs

    def tie(self, placeholder: Net, source: Net) -> None:
        """Close a feedback loop: every reader of *placeholder* reads *source*.

        *placeholder* must be a primary input (created to stand in for a
        net that did not exist yet), not a constant; it stops being one.
        """
        if placeholder not in self.inputs:
            raise ValueError(f"net {self.name_of(placeholder)!r} is not a primary input")
        if placeholder in self._const_cache.values():
            raise ValueError(f"net {self.name_of(placeholder)!r} is a constant")
        for gate, ins in enumerate(self._ins):
            if placeholder in ins:
                self._ins[gate] = tuple(source if net == placeholder else net for net in ins)
        self.inputs.remove(placeholder)
        self._fanout = None

    def constant(self, value: bool) -> Net:
        """A net tied to a constant (modelled as an input the simulator pins)."""
        if value not in self._const_cache:
            self._const_cache[value] = self.add_input(f"const_{int(value)}")
        return self._const_cache[value]

    def mark_output(self, name: str, net: Net) -> Net:
        """Give *net* an externally-visible output name."""
        self.outputs[name] = net
        return net

    # -- convenience builders -----------------------------------------

    def mux(self, sel: Net, a: Net, b: Net, name: str | None = None) -> Net:
        """``sel ? a : b`` as a single MUX gate."""
        return self.add_gate(GateKind.MUX, sel, a, b, name=name)

    # -- queries -------------------------------------------------------

    @property
    def gate_count(self) -> int:
        """Total number of gates."""
        return len(self._kind)

    @property
    def net_count(self) -> int:
        """Total number of nets (primary inputs and gate outputs)."""
        return self._nets

    def name_of(self, net: Net) -> str:
        """The name *net* was given, else ``<kind><gate index>``."""
        if net in self._names:
            return self._names[net]
        gate = self._out.index(net)
        return f"{_KINDS[self._kind[gate]].value}{gate}"

    def _fanouts(self) -> tuple[list[int], list[int], list[int]]:
        """Fan-out as linked lists of pins, one chain per net.

        A pin is one (gate, input) pair, numbered in gate-row order:
        ``head[net]`` is the first pin reading *net*, ``reader[pin]`` its
        gate, ``after[pin]`` the net's next pin, and -1 ends a chain.
        """
        if self._fanout is None:
            head = [-1] * self._nets
            reader = [gate for gate, ins in enumerate(self._ins) for _ in ins]
            after: list[int] = []
            link = after.append
            for pin, net in enumerate(chain.from_iterable(self._ins)):
                link(head[net])
                head[net] = pin
            self._fanout = head, reader, after
        return self._fanout

    # -- simulation ----------------------------------------------------

    def simulate(self, assignments: dict[Net, bool]) -> SimulationResult:
        """Unit-delay simulation from an all-zeros initial state.

        *assignments* gives the value of every primary input (missing
        inputs default to 0; constants are pinned automatically, and
        assigning one raises ``ValueError``).  Raises ``RuntimeError``
        if the netlist oscillates, i.e. the simulation's state repeats.
        """
        values = [False] * self._nets
        for value, net in self._const_cache.items():
            if net in assignments:
                raise ValueError(f"net {self.name_of(net)!r} is a constant")
            values[net] = value
        primary = set(self.inputs)
        for net, value in assignments.items():
            if net not in primary:
                raise ValueError(f"net {self.name_of(net)!r} is not a primary input")
            values[net] = bool(value)

        # The wavefront: a gate is due one step after an input of it
        # changes.  Every net starts at 0, so the inputs that are 1 (an
        # input assigned 1, or the constant 1) count as changed at time 0,
        # and at time 1 the gates due are their readers plus every gate
        # that inverts (NOT, NAND, NOR, XNOR: 1 from all-0 inputs).  Any
        # other gate reads only 0s then and already outputs what it would
        # compute.  Evaluation is two-phase per step: all due gates read
        # the pre-step values, then all output changes commit together —
        # so a chain of gates takes one time unit per stage, as real
        # hardware timing requires.  queued[g] is the last time g was
        # queued for, which alone blocks duplicate entries.
        kinds, gate_inputs, outs = self._kind, self._ins, self._out
        head, reader, after = self._fanouts()
        get = values.__getitem__
        queued = list(map(_INVERTS.__getitem__, kinds))
        due = list(compress(range(len(kinds)), queued))
        changed: list[Net] = list(compress(range(self._nets), values))

        # An acyclic netlist settles within its depth, so only feedback runs
        # past the gate count.  A step's whole state is the values plus the
        # due set; once one repeats, the netlist oscillates forever.  Brent's
        # check compares each step with the state at the last power of two.
        time = settle_time = events = 0
        seen = None
        while True:
            when = time + 1
            for net in changed:
                pin = head[net]
                while pin >= 0:
                    gate = reader[pin]
                    if queued[gate] != when:
                        queued[gate] = when
                        due.append(gate)
                    pin = after[pin]
            if not due:
                break
            time = when
            if time > len(kinds):
                state = (tuple(values), frozenset(due))
                if state == seen:
                    raise RuntimeError(
                        f"netlist {self.name!r} did not settle: it oscillates by t={time}"
                    )
                if time & (time - 1) == 0:
                    seen = state
            events += len(due)
            changed = []
            for gate in due:
                code = kinds[gate]
                ins = gate_inputs[gate]
                if code == _BUF:
                    value = values[ins[0]]
                elif code == _AND:
                    value = all(map(get, ins))
                elif code == _MUX:
                    sel, a, b = ins
                    value = values[a] if values[sel] else values[b]
                elif code == _XNOR:
                    value = not (sum(map(get, ins)) & 1)
                elif code == _NOT:
                    value = not values[ins[0]]
                elif code == _OR:
                    value = any(map(get, ins))
                elif code == _XOR:
                    value = sum(map(get, ins)) & 1
                elif code == _NAND:
                    value = not all(map(get, ins))
                else:
                    value = not any(map(get, ins))
                out = outs[gate]
                if value != values[out]:
                    changed.append(out)
            if changed:
                settle_time = time
            for net in changed:  # every value is a bool, so a change is a toggle
                values[net] = not values[net]
            due = []

        return SimulationResult(values=values, settle_time=settle_time, events=events)


class GateRun:
    """Gates planned for one :meth:`Netlist.add_gates` call.

    Planned gate *k* will drive net ``first + k`` (the netlist's net count
    when the run starts), so a gate can read gates planned before it.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.first = netlist.net_count
        self.kinds: list[GateKind] = []
        self.inputs: list[tuple[Net, ...]] = []

    def plan(self, kinds: Sequence[GateKind], inputs: Sequence[tuple[Net, ...]]) -> Net:
        """Plan gates, one kind per input tuple; returns the last one's net."""
        self.kinds += kinds
        self.inputs += inputs
        return self.first + len(self.inputs) - 1

    def add(self) -> list[Net]:
        """Add the planned gates to the netlist; returns their output nets."""
        if self.netlist.net_count != self.first:
            raise RuntimeError("the netlist grew while a gate run was planned")
        return self.netlist.add_gates(self.kinds, self.inputs)


def reduction_pairs(nets: Sequence[Net], first: Net) -> tuple[list[tuple[Net, Net]], Net]:
    """Input pairs of a balanced binary reduction of *nets*, and its root:
    per level, neighbours pair up left to right and an odd last net passes
    up.  Pair *k*'s gate drives net ``first + k``; one net needs no pairs."""
    pairs: list[tuple[Net, Net]] = []
    level = list(nets)
    while len(level) > 1:
        start = first + len(pairs)
        pairs += zip(level[::2], level[1::2])
        tail = level[-1:] if len(level) % 2 else []
        level = [*range(start, first + len(pairs)), *tail]
    return pairs, level[0]


def bus(netlist: Netlist, name: str, width: int) -> list[Net]:
    """Create a *width*-bit primary-input bus named ``name[i]``."""
    return [netlist.add_input(f"{name}[{i}]") for i in range(width)]


def assign_bus(assignment: dict[Net, bool], nets: Iterable[Net], value: int) -> None:
    """Drive an ordered little-endian list of nets with the bits of *value*."""
    for bit, net in enumerate(nets):
        assignment[net] = bool((value >> bit) & 1)


def bus_value(result: SimulationResult, nets: Iterable[Net]) -> int:
    """Read an integer off an ordered little-endian list of nets."""
    value = 0
    for bit, net in enumerate(nets):
        if result.value_of(net):
            value |= 1 << bit
    return value
