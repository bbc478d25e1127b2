"""Unit tests for the Memo-2 prioritized shared-ALU scheduler."""

import pytest

from repro.ultrascalar.scheduler import AddOp, SchedulerCircuit, prioritized_grants


class TestBehavioural:
    def test_everyone_wins_with_enough_alus(self):
        assert prioritized_grants([True] * 4, 0, 4) == [True] * 4

    def test_oldest_wins_with_one_alu(self):
        grants = prioritized_grants([True, True, True], 0, 1)
        assert grants == [True, False, False]

    def test_priority_follows_oldest_pointer(self):
        grants = prioritized_grants([True, True, True], 2, 1)
        assert grants == [False, False, True]

    def test_wraparound_priority(self):
        # oldest = 2; ring order 2, 3, 0, 1; requests at 0 and 3; one ALU
        grants = prioritized_grants([True, False, False, True], 2, 1)
        assert grants == [False, False, False, True]

    def test_non_requesters_never_granted(self):
        grants = prioritized_grants([False, True, False, True], 0, 4)
        assert grants == [False, True, False, True]

    def test_zero_alus(self):
        assert prioritized_grants([True, True], 0, 0) == [False, False]

    def test_exact_count_granted(self):
        grants = prioritized_grants([True] * 6, 0, 3)
        assert grants == [True, True, True, False, False, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            prioritized_grants([True], 5, 1)
        with pytest.raises(ValueError):
            prioritized_grants([True], 0, -1)


class TestCircuit:
    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 3), (6, 2), (7, 3), (8, 1), (8, 8)])
    def test_matches_behavioural_exhaustively(self, n, k):
        circuit = SchedulerCircuit(n, k)
        for mask in range(2**n):
            requests = [bool((mask >> i) & 1) for i in range(n)]
            for oldest in range(0, n, max(1, n // 3)):
                expected = prioritized_grants(requests, oldest, k)
                assert circuit.evaluate(requests, oldest) == expected, (
                    requests, oldest, k
                )

    def test_more_alus_than_stations_clamped(self):
        circuit = SchedulerCircuit(3, 10)
        assert circuit.num_alus == 3
        assert circuit.evaluate([True] * 3, 0) == [True] * 3

    def test_gate_count_reported(self):
        assert SchedulerCircuit(8, 2).gate_count > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerCircuit(0, 1)
        with pytest.raises(ValueError):
            SchedulerCircuit(4, 0)
        circuit = SchedulerCircuit(4, 2)
        with pytest.raises(ValueError):
            circuit.evaluate([True] * 3, 0)
        with pytest.raises(ValueError):
            circuit.evaluate([True] * 4, 9)


class TestAddOp:
    def test_combine_adds(self):
        from repro.circuits.netlist import Netlist, bus, bus_value

        nl = Netlist()
        a = bus(nl, "a", 4)
        b = bus(nl, "b", 4)
        out = AddOp(4).combine(nl, a, b)
        assignment = {}
        for i in range(4):
            assignment[a[i]] = bool((5 >> i) & 1)
            assignment[b[i]] = bool((6 >> i) & 1)
        assert bus_value(nl.simulate(assignment), out) == 11


class TestSchedulerCircuitDepth:
    """The Memo-2 scheduler's settle time stays polylogarithmic."""

    def test_settle_time_growth(self):
        times = []
        for n in (4, 8, 16, 32):
            circuit = SchedulerCircuit(n, max(1, n // 4))
            result = circuit.netlist.simulate(
                {**{net: True for net in circuit.requests},
                 **{net: i == 0 for i, net in enumerate(circuit.segments)}}
            )
            times.append(result.settle_time)
        # doubling n adds a bounded number of gate delays (log n levels
        # of log n-bit ripple adders: O(log^2 n) total, far below linear)
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(d <= 12 for d in diffs), times
        assert times[-1] < 32 * 2  # decisively sublinear vs a ring scan
