"""Property tests: the full gate-level datapath vs the behavioural walk."""

from hypothesis import given, settings, strategies as st

from tests.datapath import StationSnapshot, Ultrascalar1Datapath

N, L, W = 8, 3, 3

# one shared datapath instance (construction is the expensive part)
DATAPATH = Ultrascalar1Datapath(N, L, value_bits=W)


@st.composite
def datapath_states(draw):
    stations = []
    for _ in range(N):
        if draw(st.booleans()) or draw(st.booleans()):  # 75% occupied
            stations.append(
                StationSnapshot(
                    writes_register=draw(st.one_of(st.none(), st.integers(0, L - 1))),
                    result=draw(st.integers(0, (1 << W) - 1)),
                    done=draw(st.booleans()),
                    finished_store=draw(st.booleans()),
                    finished_memory=draw(st.booleans()),
                )
            )
        else:
            stations.append(None)
    oldest = draw(st.integers(0, N - 1))
    committed = [draw(st.integers(0, (1 << W) - 1)) for _ in range(L)]
    return stations, oldest, committed


def behavioural(stations, oldest, committed):
    order = [(oldest + k) % N for k in range(N)]
    values = list(committed)
    ready = [True] * L
    incoming = {}
    for pos in order:
        incoming[pos] = (list(values), list(ready))
        snapshot = stations[pos]
        if snapshot is not None and snapshot.writes_register is not None:
            r = snapshot.writes_register
            values[r] = snapshot.result
            ready[r] = snapshot.done
    return incoming


@given(datapath_states())
@settings(max_examples=30, deadline=None)
def test_register_rings_match_behavioural_walk(state):
    stations, oldest, committed = state
    outputs = DATAPATH.step(stations, oldest, committed)
    reference = behavioural(stations, oldest, committed)
    for pos in range(N):
        if pos == oldest:
            continue  # the oldest ignores incoming values
        expect_values, expect_ready = reference[pos]
        for r in range(L):
            got_value, got_ready = outputs.incoming[pos][r]
            assert got_ready == expect_ready[r]
            if expect_ready[r]:
                assert got_value == expect_values[r]


@given(datapath_states())
@settings(max_examples=30, deadline=None)
def test_sequencing_conditions_match_scan(state):
    stations, oldest, committed = state
    outputs = DATAPATH.step(stations, oldest, committed)
    order = [(oldest + k) % N for k in range(N)]

    def scan(key):
        out = {}
        acc = True
        for idx, pos in enumerate(order):
            out[pos] = True if idx == 0 else acc
            snapshot = stations[pos]
            acc = acc and (True if snapshot is None else key(snapshot))
        return out

    done_ref = scan(lambda s: s.done)
    store_ref = scan(lambda s: s.finished_store)
    mem_ref = scan(lambda s: s.finished_memory)
    for pos in range(N):
        assert outputs.all_earlier_done[pos] == done_ref[pos]
        assert outputs.stores_done[pos] == store_ref[pos]
        assert outputs.memory_done[pos] == mem_ref[pos]


@given(datapath_states())
@settings(max_examples=20, deadline=None)
def test_settle_time_bounded_by_logarithm(state):
    stations, oldest, committed = state
    outputs = DATAPATH.step(stations, oldest, committed)
    # a binary CSPP over 8 stations settles within ~4 log2(8) gate delays
    assert outputs.settle_time <= 14
