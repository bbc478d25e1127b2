"""Property tests for the memory system: every cache configuration must
behave exactly like a flat memory, under arbitrary request interleavings."""

from hypothesis import given, settings, strategies as st

from repro.memory.cluster_cache import ClusteredMemory
from repro.memory.interleaved_cache import InterleavedCache, MemoryRequest
from repro.network.fattree import FatTree, bandwidth_constant
from repro.util.bitops import WORD_MASK
from tests.oracles import drain


@st.composite
def request_sequences(draw):
    """A sequence of (is_store, address, value, leaf) operations."""
    count = draw(st.integers(1, 30))
    ops = []
    for _ in range(count):
        ops.append(
            (
                draw(st.booleans()),
                4 * draw(st.integers(0, 15)),  # aligned, small address space
                draw(st.integers(0, WORD_MASK)),
                draw(st.integers(0, 7)),
            )
        )
    return ops


def flat_reference(ops):
    """What a flat memory would return for each load, plus final state."""
    memory: dict[int, int] = {}
    loads = []
    for is_store, address, value, _leaf in ops:
        if is_store:
            memory[address] = value
        else:
            loads.append(memory.get(address, 0))
    return loads, memory


@st.composite
def cache_configs(draw):
    return dict(
        banks=draw(st.sampled_from([1, 2, 4])),
        lines_per_bank=draw(st.sampled_from([1, 2, 8])),
        words_per_line=draw(st.sampled_from([1, 2, 4])),
        hit_latency=draw(st.integers(1, 3)),
    )


@given(request_sequences(), cache_configs())
@settings(max_examples=50, deadline=None)
def test_interleaved_cache_is_a_memory(ops, config):
    """Serial requests through any cache geometry = flat memory."""
    cache = InterleavedCache(**config)
    got_loads = []
    for rid, (is_store, address, value, leaf) in enumerate(ops):
        request = MemoryRequest(rid, address=address, is_store=is_store, value=value, leaf=leaf)
        cache.submit(request)
        drain(cache)
        if not is_store:
            got_loads.append(request.result)
    expected_loads, expected_memory = flat_reference(ops)
    assert got_loads == expected_loads
    cache.flush()
    for address, value in expected_memory.items():
        assert cache.memory.read_word(address) == value


@given(request_sequences())
@settings(max_examples=50, deadline=None)
def test_interleaved_cache_pipelined_requests(ops):
    """All requests submitted at once: loads see program-order stores...
    actually the cache serializes per bank FIFO, and requests to the same
    word through one bank keep submission order — the loads' results must
    match a flat memory executed in completion order per address."""
    cache = InterleavedCache(banks=2, lines_per_bank=4, words_per_line=2)
    requests = []
    for rid, (is_store, address, value, leaf) in enumerate(ops):
        request = MemoryRequest(rid, address=address, is_store=is_store, value=value, leaf=leaf)
        requests.append(request)
        cache.submit(request)
    drain(cache)
    # same-address operations share a bank, hence complete in submission
    # order: each load returns the latest earlier store to its address
    last_value: dict[int, int] = {}
    for request in requests:
        if request.is_store:
            last_value[request.address] = request.value & WORD_MASK
        else:
            assert request.result == last_value.get(request.address, 0)


@given(request_sequences())
@settings(max_examples=50, deadline=None)
def test_clustered_memory_is_a_memory(ops):
    """The write-through + invalidate protocol never serves stale data."""
    memory = ClusteredMemory(cluster_size=4, words_per_cluster=4)
    got_loads = []
    for is_store, address, value, leaf in ops:
        if is_store:
            rid = memory.submit_store(address, value, leaf=leaf)
        else:
            rid = memory.submit_load(address, leaf=leaf)
        result = None
        for _ in range(10):
            done = memory.tick()
            if rid in done:
                result = done[rid]
                break
        if not is_store:
            got_loads.append(result)
    expected_loads, expected_memory = flat_reference(ops)
    assert got_loads == expected_loads
    assert memory.final_state() == expected_memory


@given(
    st.lists(st.integers(0, 15), min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=50, deadline=None)
def test_fat_tree_admission_invariants(leaves, exponent):
    """Admission never exceeds the root capacity, preserves priority,
    and partitions requests exactly into granted + denied."""
    tree = FatTree(16, lambda s: float(s) ** exponent)
    routing = tree.admit(leaves)
    assert sorted(routing.granted + routing.denied) == list(range(len(leaves)))
    root_capacity = tree.level_capacity[-1]
    assert len(routing.granted) <= root_capacity or len(leaves) <= root_capacity
    # oldest-first: every denied request is younger than some granted one
    # whenever anything was granted at all
    if routing.denied and routing.granted:
        assert routing.granted[0] < routing.denied[-1]
    # index 0 is always admitted (capacities are >= 1 everywhere)
    assert 0 in routing.granted


@given(st.lists(st.integers(0, 15), min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_fat_tree_no_starvation(leaves):
    """Retrying denied requests round by round eventually admits all."""
    tree = FatTree(16, bandwidth_constant(1.0))
    pending = list(leaves)
    rounds = 0
    while pending:
        routing = tree.admit(pending)
        assert routing.granted, "a round must always admit at least one request"
        pending = [pending[i] for i in routing.denied]
        rounds += 1
        assert rounds <= len(leaves)
