"""Property tests: the event-driven simulator on random acyclic netlists.

Acyclic netlists have one settled state, which evaluating the gates once
in creation order (a topological order) also computes, and they settle
no later than their critical path.  Delays are mixed and include 0, so
same-timestamp re-evaluation is exercised too.
"""

from hypothesis import given, settings, strategies as st

from repro.circuits.netlist import GateKind, Netlist
from tests.oracles import topological_depth

_REFERENCE = {
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
        reference[out] = bool(_REFERENCE[kind]([reference[net] for net in ins]))
    return nl, assignment, reference


@given(acyclic_netlists())
@settings(max_examples=200, deadline=None)
def test_simulation_matches_topological_evaluation(case):
    nl, assignment, reference = case
    result = nl.simulate(assignment)
    assert {net: result.value_of(net) for net in reference} == reference
    assert result.settle_time <= topological_depth(nl)
    assert result.events >= nl.gate_count


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
