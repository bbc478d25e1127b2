"""Integration: the full gate-level datapath equals the processor's
behavioural register-view walk — the paper's claim that the CSPP
network provides "the full functionality of superscalar processors",
checked circuit-against-model.
"""

import random

import pytest

from tests.datapath import StationSnapshot, Ultrascalar1Datapath


def reference_views(stations, oldest, committed, L):
    """The RingProcessor view walk, restated independently."""
    n = len(stations)
    order = [(oldest + k) % n for k in range(n)]
    values = list(committed)
    ready = [True] * L
    views = {pos: None for pos in order}
    for pos in order:
        views[pos] = (list(values), list(ready))
        snapshot = stations[pos]
        if snapshot is not None and snapshot.writes_register is not None:
            r = snapshot.writes_register
            values[r] = snapshot.result if snapshot.done else 0
            ready[r] = snapshot.done
    return views


def reference_condition(stations, oldest, key):
    n = len(stations)
    order = [(oldest + k) % n for k in range(n)]
    out = {}
    acc = True
    for pos in order:
        out[pos] = acc if pos != oldest else True
        snapshot = stations[pos]
        value = True if snapshot is None else key(snapshot)
        acc = acc and value
    # recompute in scan form: out[pos] = AND of all older stations
    acc = True
    for idx, pos in enumerate(order):
        out[pos] = True if idx == 0 else acc
        snapshot = stations[pos]
        acc = acc and (True if snapshot is None else key(snapshot))
    return out


class TestDatapathEqualsModel:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_states(self, seed):
        rng = random.Random(seed)
        n, L, w = 8, 4, 4
        datapath = Ultrascalar1Datapath(n, L, value_bits=w)
        stations = []
        for _ in range(n):
            if rng.random() < 0.2:
                stations.append(None)
            else:
                stations.append(
                    StationSnapshot(
                        writes_register=rng.choice([None] + list(range(L))),
                        result=rng.randrange(1 << w),
                        done=rng.random() < 0.6,
                        finished_store=rng.random() < 0.7,
                        finished_memory=rng.random() < 0.7,
                    )
                )
        oldest = rng.randrange(n)
        committed = [rng.randrange(1 << w) for _ in range(L)]

        outputs = datapath.step(stations, oldest, committed)
        views = reference_views(stations, oldest, committed, L)

        for pos in range(n):
            if pos == oldest:
                continue  # the oldest ignores incoming values
            expect_values, expect_ready = views[pos]
            for r in range(L):
                got_value, got_ready = outputs.incoming[pos][r]
                assert got_ready == expect_ready[r], (pos, r)
                if expect_ready[r]:
                    assert got_value == expect_values[r], (pos, r)

        done_ref = reference_condition(stations, oldest, lambda s: s.done)
        store_ref = reference_condition(stations, oldest, lambda s: s.finished_store)
        mem_ref = reference_condition(stations, oldest, lambda s: s.finished_memory)
        for pos in range(n):
            assert outputs.all_earlier_done[pos] == done_ref[pos], pos
            assert outputs.stores_done[pos] == store_ref[pos], pos
            assert outputs.memory_done[pos] == mem_ref[pos], pos

    def test_oldest_receives_committed_file(self):
        n, L, w = 4, 2, 4
        datapath = Ultrascalar1Datapath(n, L, value_bits=w)
        stations = [
            StationSnapshot(writes_register=0, result=9, done=True) for _ in range(n)
        ]
        outputs = datapath.step(stations, oldest=1, committed_registers=[3, 7])
        # station 2 (just younger than oldest=1) sees the committed file
        # overlaid by station 1's write of r0
        assert outputs.incoming[2][0] == (9, True)
        assert outputs.incoming[2][1] == (7, True)

    def test_unready_write_blocks_value(self):
        datapath = Ultrascalar1Datapath(4, 2, value_bits=4)
        stations = [
            StationSnapshot(writes_register=None, result=0, done=True),
            StationSnapshot(writes_register=0, result=5, done=False),  # pending
            StationSnapshot(writes_register=None, result=0, done=False),
            None,
        ]
        outputs = datapath.step(stations, oldest=0, committed_registers=[1, 2])
        # r0 not ready (its value is a don't-care until the ready bit rises)
        assert outputs.incoming[2][0][1] is False
        assert outputs.incoming[2][1] == (2, True)   # r1 from committed file

    def test_settle_time_logarithmic_in_n(self):
        times = []
        for n in (8, 16, 32):
            datapath = Ultrascalar1Datapath(n, 2, value_bits=2)
            stations = [
                StationSnapshot(writes_register=0, result=3, done=True)
                for _ in range(n)
            ]
            times.append(datapath.step(stations, 0, [1, 1]).settle_time)
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(d <= 4 for d in diffs), times

    def test_gate_count_scales_with_L(self):
        small = Ultrascalar1Datapath(8, 2, value_bits=4).gate_count
        large = Ultrascalar1Datapath(8, 8, value_bits=4).gate_count
        # 4x the register trees; the three fixed sequencing trees dilute
        # the ratio below 4
        assert large > 2.5 * small

    def test_validation(self):
        datapath = Ultrascalar1Datapath(4, 2)
        with pytest.raises(ValueError):
            datapath.step([None] * 3, 0, [0, 0])
        with pytest.raises(ValueError):
            datapath.step([None] * 4, 0, [0])
        with pytest.raises(ValueError):
            datapath.step([None] * 4, 9, [0, 0])
        with pytest.raises(ValueError):
            Ultrascalar1Datapath(0, 2)
