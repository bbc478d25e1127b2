"""Property-based tests: every circuit equals its behavioural reference.

These are the load-bearing correctness arguments for the paper's central
claim that "each parallel prefix circuit has exactly the same
functionality and the same interface as the multiplexer ring that it has
replaced".
"""

from hypothesis import given, settings, strategies as st

from repro.circuits.cspp import CsppTree, build_copy_cspp, cyclic_segmented_copy
from repro.circuits.grid import GridNetwork, RegisterBinding, TreeGridNetwork, route_arguments
from repro.circuits.mux_ring import MuxRing
from repro.circuits.prefix import AndOp
from tests.unit.test_prefix_circuits import cyclic_and

# Keep circuit sizes modest: netlist construction is O(n^2) for grids.
ring_inputs = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 7), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any),
    )
)


@given(ring_inputs)
@settings(max_examples=40, deadline=None)
def test_mux_ring_equals_reference(data):
    xs, segs = data
    ring = MuxRing(len(xs), width=3)
    assert ring.evaluate(xs, segs) == cyclic_segmented_copy(xs, segs)


@given(ring_inputs)
@settings(max_examples=40, deadline=None)
def test_cspp_tree_equals_reference(data):
    xs, segs = data
    tree = build_copy_cspp(len(xs), width=3)
    assert tree.evaluate(xs, segs) == cyclic_segmented_copy(xs, segs)


@given(ring_inputs)
@settings(max_examples=40, deadline=None)
def test_cspp_tree_equals_mux_ring(data):
    """The paper's drop-in-replacement claim, tested directly."""
    xs, segs = data
    n = len(xs)
    assert build_copy_cspp(n, width=3).evaluate(xs, segs) == MuxRing(n, width=3).evaluate(xs, segs)


@given(ring_inputs)
@settings(max_examples=40, deadline=None)
def test_radix4_cspp_equals_binary(data):
    xs, segs = data
    n = len(xs)
    assert (
        build_copy_cspp(n, width=3, radix=4).evaluate(xs, segs)
        == build_copy_cspp(n, width=3, radix=2).evaluate(xs, segs)
    )


@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n).filter(any),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_and_cspp_equals_reference(data):
    conditions, segs = data
    tree = CsppTree(len(conditions), op=AndOp(), name="cspp_and")
    got = [bool(v) for v in tree.evaluate([int(c) for c in conditions], segs)]
    assert got == cyclic_and(conditions, segs)


@st.composite
def grid_cases(draw):
    n = draw(st.integers(1, 5))
    L = draw(st.integers(1, 6))
    initial = [
        (draw(st.integers(0, 7)), draw(st.booleans())) for _ in range(L)
    ]
    writes = [
        None
        if draw(st.booleans())
        else RegisterBinding(draw(st.integers(0, L - 1)), draw(st.integers(0, 7)), draw(st.booleans()))
        for _ in range(n)
    ]
    reads = [
        [draw(st.integers(0, L - 1)), draw(st.integers(0, L - 1))] for _ in range(n)
    ]
    return n, L, initial, writes, reads


@given(grid_cases())
@settings(max_examples=25, deadline=None)
def test_linear_grid_equals_reference(case):
    n, L, initial, writes, reads = case
    network = GridNetwork(n, L, value_bits=3)
    assert network.evaluate(initial, writes, reads) == route_arguments(L, initial, writes, reads)


@given(grid_cases())
@settings(max_examples=25, deadline=None)
def test_tree_grid_equals_reference(case):
    n, L, initial, writes, reads = case
    network = TreeGridNetwork(n, L, value_bits=3)
    assert network.evaluate(initial, writes, reads) == route_arguments(L, initial, writes, reads)
