"""Reference models the tests check the package against.

Nothing here is reached from an entry point: each is a behavioural
model, a closed form or a fixture that only the tests compare the
package's own code with, so it lives beside the tests rather than in
``src/repro``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

from repro.circuits.netlist import _KINDS, GateKind, SimulationResult
from repro.isa import Instruction, MachineSpec, Opcode, Program
from repro.workloads import Workload

T = TypeVar("T")


def x_closed_form(n: int, L: int, m_exponent: float, m_scale: float = 1.0) -> float:
    """The paper's closed-form X(n) for M(n) = m_scale * n**m_exponent.

    Case 1 (exp < 1/2):  X = Theta(sqrt(n) L)
    Case 2 (exp = 1/2):  X = Theta(sqrt(n) (L + log n))
    Case 3 (exp > 1/2):  X = Theta(sqrt(n) L + M(n))
    """
    if n < 1 or L < 1:
        raise ValueError("n and L must be positive")
    root = math.sqrt(n)
    if m_exponent < 0.5:
        return root * L
    if m_exponent == 0.5:
        return root * (L + math.log2(max(2, n)))
    return root * L + m_scale * n**m_exponent


def segmented_scan(
    xs: Sequence[T],
    segments: Sequence[bool],
    op: Callable[[T, T], T],
    initial: T,
) -> list[T]:
    """Noncyclic segmented scan.

    Returns ``y`` where ``y[i]`` is the reduction (by *op*) of
    ``x[j] .. x[i-1]``, with ``j`` the nearest index ``<= i-1`` whose
    segment bit is set; positions before any segment accumulate from
    *initial*.  This matches the paper's definition: "the accumulative
    result of applying an associative operator to all the preceding nodes
    up to and including the nearest node whose segment bit is high."
    """
    if len(xs) != len(segments):
        raise ValueError("xs and segments must have equal length")
    ys: list[T] = []
    acc = initial
    for x, seg in zip(xs, segments):
        ys.append(acc)
        acc = x if seg else op(acc, x)
    return ys


def net_readers(netlist) -> list[list[int]]:
    """Per net, the gates that read it, in gate order (a gate that reads
    a net twice is listed twice), built from the gate rows alone."""
    readers: list[list[int]] = [[] for _ in range(netlist.net_count)]
    for gate, ins in enumerate(netlist._ins):
        for net in ins:
            readers[net].append(gate)
    return readers


def topological_depth(netlist) -> int:
    """Critical-path length of an acyclic netlist, in gate delays.

    Walks the gate rows in dependency order (Kahn's algorithm); gates on
    or behind a cycle never become ready, so a cyclic netlist raises
    ``ValueError``.
    """
    primary = set(netlist.inputs)
    indegree = [sum(net not in primary for net in ins) for ins in netlist._ins]
    ready = [gate for gate, deg in enumerate(indegree) if deg == 0]
    readers = net_readers(netlist)
    order: list[int] = []
    while ready:
        gate = ready.pop()
        order.append(gate)
        for successor in readers[netlist._out[gate]]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    if len(order) < netlist.gate_count:
        raise ValueError("netlist is cyclic")
    depth = [0] * netlist.net_count
    for gate in order:
        arrival = max(depth[net] for net in netlist._ins[gate])
        depth[netlist._out[gate]] = 1 + arrival
    return max(depth, default=0)


#: what each gate kind computes from its input values, in input order
GATE_FUNCTIONS = {
    GateKind.BUF: lambda v: v[0],
    GateKind.NOT: lambda v: not v[0],
    GateKind.AND: all,
    GateKind.OR: any,
    GateKind.XOR: lambda v: sum(v) % 2 == 1,
    GateKind.XNOR: lambda v: sum(v) % 2 == 0,
    GateKind.NAND: lambda v: not all(v),
    GateKind.NOR: lambda v: not any(v),
    GateKind.MUX: lambda v: v[1] if v[0] else v[2],
}


def reference_simulate(netlist, assignments: dict[int, bool]) -> SimulationResult:
    """Unit-delay simulation in which every gate is due at time 1.

    The straightforward wavefront :meth:`Netlist.simulate` refines: all
    nets start at 0 with the inputs applied, every gate is evaluated at
    time 1, and thereafter a gate is due one step after an input of it
    changed (two-phase: a step's gates all read the pre-step values).
    Fan-out comes from :func:`net_readers`.  Past the gate count a
    repeat of the state (values plus due set), checked against a
    snapshot taken at powers of two, raises the simulator's
    ``RuntimeError``.  Its ``events`` bounds the simulator's from above.
    """
    kinds = [_KINDS[code] for code in netlist._kind]
    values = [False] * netlist.net_count
    for value, net in netlist._const_cache.items():
        if net in assignments:
            raise ValueError(f"net {netlist.name_of(net)!r} is a constant")
        values[net] = value
    for net, value in assignments.items():
        if net not in netlist.inputs:
            raise ValueError(f"net {netlist.name_of(net)!r} is not a primary input")
        values[net] = bool(value)
    readers = net_readers(netlist)
    due = set(range(len(kinds)))
    time = settle_time = events = 0
    seen = None
    while due:
        time += 1
        if time > len(kinds):
            state = (tuple(values), frozenset(due))
            if state == seen:
                raise RuntimeError(
                    f"netlist {netlist.name!r} did not settle: it oscillates by t={time}"
                )
            if time & (time - 1) == 0:
                seen = state
        events += len(due)
        changed = []
        for gate in due:
            inputs = [values[net] for net in netlist._ins[gate]]
            value = bool(GATE_FUNCTIONS[kinds[gate]](inputs))
            if value != values[netlist._out[gate]]:
                changed.append((netlist._out[gate], value))
        if changed:
            settle_time = time
        for net, value in changed:
            values[net] = value
        due = {gate for net, _ in changed for gate in readers[net]}
    return SimulationResult(values=values, settle_time=settle_time, events=events)


def drain(cache, max_cycles: int = 100_000) -> list:
    """Tick an :class:`~repro.memory.interleaved_cache.InterleavedCache`
    until no request is left in its network, bank queues or banks;
    returns the completed requests."""

    def outstanding() -> int:
        return (
            len(cache._pending_network)
            + sum(len(q) for q in cache._bank_queues)
            + sum(1 for b in cache._bank_busy if b is not None)
        )

    done = []
    cycles = 0
    while outstanding() > 0:
        done.extend(cache.tick())
        cycles += 1
        if cycles > max_cycles:
            raise RuntimeError("cache failed to drain")
    return done


def occupied_stations(engine) -> list:
    """A ring engine's occupied stations oldest-first (a contiguous run of
    the ring)."""
    return [engine.stations[(engine.oldest + k) % engine.n] for k in range(engine.count)]


def memory_stream(count: int, spec: MachineSpec | None = None) -> Workload:
    """Independent store/load pairs: maximal memory-bandwidth pressure.

    One memory operation per instruction (modulo address setup), the
    M(n) = Θ(n) worst case of the paper's Section 7 discussion.
    """
    if count < 1:
        raise ValueError("count must be positive")
    spec = spec or MachineSpec()
    L = spec.num_registers
    insts = [Instruction(Opcode.LI, rd=1, imm=7)]
    for i in range(count):
        reg = 2 + (i % (L - 2))
        insts.append(Instruction(Opcode.SW, rs2=1, rs1=0, imm=4 * i + 4))
        insts.append(Instruction(Opcode.LW, rd=reg, rs1=0, imm=4 * i + 4))
    insts.append(Instruction(Opcode.HALT))
    return Workload(
        name=f"stream-{count}",
        program=Program.from_instructions(insts, spec),
        description="Independent store/load pairs (bandwidth-bound)",
    )


def expected_matmul(size: int, workload: Workload) -> dict[int, int]:
    """The C-matrix words *matmul* must produce (for assertions)."""
    a = [[workload.memory_image[4096 + 4 * (i * size + k)] for k in range(size)] for i in range(size)]
    b = [[workload.memory_image[8192 + 4 * (k * size + j)] for j in range(size)] for k in range(size)]
    out = {}
    for i in range(size):
        for j in range(size):
            out[12288 + 4 * (i * size + j)] = sum(a[i][k] * b[k][j] for k in range(size))
    return out
