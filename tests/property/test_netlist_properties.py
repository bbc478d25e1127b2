"""Property tests: the unit-delay simulator on random netlists.

Acyclic netlists have one settled state, which evaluating the gates once
in creation order (a topological order) also computes, and they settle
no later than their critical path.  Netlists closed by ``tie`` may
settle or oscillate; on every netlist the simulator agrees with the
every-gate-at-time-1 reference in ``tests/oracles.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.netlist import GateKind, Netlist
from tests.oracles import GATE_FUNCTIONS, reference_simulate, topological_depth

_FIXED_ARITY = {GateKind.BUF: 1, GateKind.NOT: 1, GateKind.MUX: 3}


@st.composite
def acyclic_netlists(draw):
    """(netlist, input assignment, reference value of every net)."""
    nl = Netlist()
    reference = {}
    assignment = {}
    for k in range(draw(st.integers(1, 4))):
        net = nl.add_input(f"i{k}")
        assignment[net] = reference[net] = draw(st.booleans())
    if draw(st.booleans()):
        value = draw(st.booleans())
        reference[nl.constant(value)] = value
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(list(GateKind)))
        arity = _FIXED_ARITY.get(kind) or draw(st.integers(2, 4))
        ins = draw(st.lists(st.sampled_from(sorted(reference)), min_size=arity, max_size=arity))
        out = nl.add_gate(kind, *ins)
        reference[out] = bool(GATE_FUNCTIONS[kind]([reference[net] for net in ins]))
    return nl, assignment, reference


@given(acyclic_netlists())
@settings(max_examples=200, deadline=None)
def test_simulation_matches_topological_evaluation(case):
    nl, assignment, reference = case
    result = nl.simulate(assignment)
    assert {net: result.value_of(net) for net in reference} == reference
    assert result.settle_time <= topological_depth(nl)


@st.composite
def tied_netlists(draw):
    """(netlist, input assignment): random gates over inputs, constants and
    placeholders, each placeholder then tied to a drawn gate's output, so
    the netlist may hold feedback loops."""
    nl = Netlist()
    pool = [nl.add_input(f"i{k}") for k in range(draw(st.integers(1, 4)))]
    placeholders = [nl.add_input(f"fb{k}") for k in range(draw(st.integers(0, 3)))]
    pool += placeholders
    for value in (False, True):
        if draw(st.booleans()):
            pool.append(nl.constant(value))
    gates = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(list(GateKind)))
        arity = _FIXED_ARITY.get(kind) or draw(st.integers(2, 4))
        ins = draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity))
        gates.append(nl.add_gate(kind, *ins))
        pool.append(gates[-1])
    for placeholder in placeholders:
        nl.tie(placeholder, draw(st.sampled_from(gates)))
    constants = set(nl._const_cache.values())
    drivable = [net for net in nl.inputs if net not in constants]
    assigned = draw(st.lists(st.sampled_from(drivable), unique=True)) if drivable else []
    return nl, {net: draw(st.booleans()) for net in assigned}


@st.composite
def ring_oscillators(draw):
    """(netlist, input assignment): ``out = NOT(AND(enable, out))`` through
    a chain of buffers; it oscillates when enabled and settles when not."""
    nl = Netlist()
    enable = nl.add_input("enable")
    feedback = nl.add_input("fb")
    net = nl.add_gate(GateKind.AND, enable, feedback)
    for _ in range(draw(st.integers(0, 3))):
        net = nl.add_gate(GateKind.BUF, net)
    nl.tie(feedback, nl.add_gate(GateKind.NOT, net))
    return nl, {enable: draw(st.booleans())}


@given(
    st.one_of(
        acyclic_netlists().map(lambda case: case[:2]),
        tied_netlists(),
        ring_oscillators(),
    )
)
@settings(max_examples=300, deadline=None)
def test_simulation_matches_the_every_gate_reference(case):
    nl, assignment = case
    try:
        expected = reference_simulate(nl, assignment)
    except RuntimeError as error:
        with pytest.raises(RuntimeError) as raised:
            nl.simulate(assignment)
        assert str(raised.value) == str(error)
        return
    result = nl.simulate(assignment)
    assert result.values == expected.values
    assert result.settle_time == expected.settle_time
    assert result.events <= expected.events


def _arrays(nl):
    return nl.net_count, nl.inputs, nl._kind, nl._ins, nl._out


@st.composite
def gate_runs(draw):
    """(input count, runs), each run (kinds or one kind, input tuples).

    A gate reads primary inputs or any earlier gate, including earlier
    gates of its own run, so the netlist stays acyclic.
    """
    n_inputs = draw(st.integers(1, 4))
    nets = n_inputs
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        one_kind = draw(st.sampled_from(list(GateKind))) if draw(st.booleans()) else None
        kinds, inputs = [], []
        for _ in range(draw(st.integers(0, 6))):
            kind = one_kind or draw(st.sampled_from(list(GateKind)))
            arity = _FIXED_ARITY.get(kind) or draw(st.integers(2, 4))
            ins = draw(st.lists(st.integers(0, nets - 1), min_size=arity, max_size=arity))
            kinds.append(kind)
            inputs.append(tuple(ins))
            nets += 1
        runs.append((one_kind or kinds, inputs))
    return n_inputs, runs


@given(gate_runs(), st.data())
@settings(max_examples=200, deadline=None)
def test_bulk_runs_build_the_netlist_gate_by_gate_does(case, data):
    n_inputs, runs = case
    one, bulk = Netlist(), Netlist()
    for k in range(n_inputs):
        one.add_input(f"i{k}")
        bulk.add_input(f"i{k}")
    for kind, inputs in runs:
        kinds = [kind] * len(inputs) if isinstance(kind, GateKind) else kind
        singles = [one.add_gate(k, *ins) for k, ins in zip(kinds, inputs)]
        outs = bulk.add_gates(kind, inputs)
        assert outs == singles
        assert all(out is stored for out, stored in zip(outs, bulk._out[-len(outs):]))
    assert _arrays(bulk) == _arrays(one)
    assignment = {net: data.draw(st.booleans()) for net in one.inputs}
    expected, got = one.simulate(assignment), bulk.simulate(assignment)
    assert (got.values, got.settle_time, got.events) == (
        expected.values,
        expected.settle_time,
        expected.events,
    )
