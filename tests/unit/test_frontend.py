"""Unit tests for branch predictors and the fetch unit."""

import pytest

from repro.frontend.branch_predictor import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTaken,
    BimodalPredictor,
    GSharePredictor,
    PerfectPredictor,
)
from repro.frontend.fetch import FetchUnit
from repro.isa import Instruction, Opcode, assemble, run_program
from repro.memory.trace_cache import TraceCache


BRANCH = Instruction(Opcode.BEQ, rs1=0, rs2=1, target=0)


class TestStaticPredictors:
    def test_always_taken(self):
        assert AlwaysTaken().predict(5, BRANCH) is True

    def test_always_not_taken(self):
        assert AlwaysNotTaken().predict(5, BRANCH) is False

    def test_backward_taken(self):
        backward = Instruction(Opcode.BNE, rs1=0, rs2=1, target=2)
        forward = Instruction(Opcode.BNE, rs1=0, rs2=1, target=9)
        predictor = BackwardTaken()
        assert predictor.predict(5, backward) is True
        assert predictor.predict(5, forward) is False


class TestBimodal:
    def test_starts_weakly_not_taken(self):
        assert BimodalPredictor().predict(3, BRANCH) is False

    def test_learns_taken(self):
        predictor = BimodalPredictor()
        predictor.update(3, True)
        assert predictor.predict(3, BRANCH) is True

    def test_hysteresis(self):
        predictor = BimodalPredictor()
        for _ in range(4):
            predictor.update(3, True)  # saturate at 3
        predictor.update(3, False)     # one not-taken
        assert predictor.predict(3, BRANCH) is True  # still predicts taken

    def test_counters_saturate(self):
        predictor = BimodalPredictor(size=4)
        for _ in range(10):
            predictor.update(0, False)
        assert predictor.counters[0] == 0
        for _ in range(10):
            predictor.update(0, True)
        assert predictor.counters[0] == 3

    def test_reset(self):
        predictor = BimodalPredictor()
        predictor.update(3, True)
        predictor.update(3, True)
        predictor.reset()
        assert predictor.predict(3, BRANCH) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            BimodalPredictor(size=0)


class TestGShare:
    def test_history_differentiates_contexts(self):
        predictor = GSharePredictor(size=64)
        # alternating pattern at one PC: plain bimodal would stay confused,
        # gshare separates the two history contexts
        for _ in range(20):
            taken = predictor.history & 1 == 0
            predictor.update(8, taken)
        # after training, prediction should follow the alternation
        correct = 0
        for _ in range(10):
            want = predictor.history & 1 == 0
            if predictor.predict(8, BRANCH) == want:
                correct += 1
            predictor.update(8, want)
        assert correct >= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GSharePredictor(size=100)  # not a power of two

    def test_reset(self):
        predictor = GSharePredictor()
        predictor.update(0, True)
        predictor.reset()
        assert predictor.history == 0


class TestPerfectPredictor:
    def test_replays_trace_outcomes(self):
        program = assemble(
            """
            li r1, 3
          loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
            """
        )
        golden = run_program(program)
        oracle = PerfectPredictor.from_trace(golden.trace)
        branch_pc = 2
        inst = program[branch_pc]
        # outcomes: taken, taken, not taken
        assert oracle.predict(branch_pc, inst) is True
        oracle.update(branch_pc, True)
        assert oracle.predict(branch_pc, inst) is True
        oracle.update(branch_pc, True)
        assert oracle.predict(branch_pc, inst) is False

    def test_unknown_pc_predicts_not_taken(self):
        oracle = PerfectPredictor({})
        assert oracle.predict(99, BRANCH) is False

    def test_exhausted_outcomes_repeat_last(self):
        oracle = PerfectPredictor({0: [True]})
        oracle.update(0, True)
        assert oracle.predict(0, BRANCH) is True

    def test_reset(self):
        oracle = PerfectPredictor({0: [True, False]})
        oracle.update(0, True)
        oracle.reset()
        assert oracle.predict(0, BRANCH) is True


class TestFetchUnit:
    def make(self, source, width=4, trace_cache=None, predictor=None):
        program = assemble(source)
        return program, FetchUnit(
            program, predictor or AlwaysNotTaken(), width=width, trace_cache=trace_cache
        )

    def test_straight_line_fetch(self):
        _, fetch = self.make("nop\nnop\nnop\nnop\nnop\nhalt", width=4)
        assert fetch.fetch_cycle() == [0, 1, 2, 3]
        assert fetch.pc == 4
        assert fetch.fetch_cycle() == [4, 5]
        assert fetch.stalled()  # HALT stops fetch

    def test_budget_limits_delivery(self):
        _, fetch = self.make("nop\nnop\nnop\nhalt", width=4)
        assert len(fetch.fetch_cycle(budget=2)) == 2
        assert fetch.fetch_cycle(budget=0) == []
        assert fetch.fetch_cycle()[0] == 2

    def test_taken_branch_ends_fetch_group(self):
        _, fetch = self.make("nop\nj target\nnop\ntarget: halt", width=4)
        assert fetch.fetch_cycle() == [0, 1]
        assert fetch.predictions == []  # a jump needs no prediction
        assert fetch.pc == 3
        assert fetch.fetch_cycle() == [3]

    def test_not_taken_branch_does_not_end_group(self):
        _, fetch = self.make("beq r0, r1, @3\nnop\nnop\nhalt", width=4)
        assert fetch.fetch_cycle() == [0, 1, 2, 3]
        assert fetch.predictions == [False]

    def test_predicted_taken_follows_target(self):
        _, fetch = self.make(
            "beq r0, r0, target\nnop\ntarget: halt", predictor=AlwaysTaken()
        )
        assert fetch.fetch_cycle() == [0]
        assert fetch.predictions == [True]
        assert fetch.pc == 2
        assert fetch.fetch_cycle() == [2]

    def test_redirect(self):
        _, fetch = self.make("nop\nnop\nnop\nhalt")
        fetch.fetch_cycle()
        fetch.redirect(1)
        assert fetch.pc == 1
        assert fetch.fetch_cycle()[0] == 1

    def test_redirect_out_of_range_stalls(self):
        _, fetch = self.make("nop\nhalt")
        fetch.redirect(99)
        assert fetch.stalled()

    def test_empty_program_is_stalled(self):
        program = assemble("")
        fetch = FetchUnit(program, AlwaysNotTaken())
        assert fetch.stalled()
        assert fetch.fetch_cycle() == []

    def test_width_validation(self):
        program = assemble("nop")
        with pytest.raises(ValueError):
            FetchUnit(program, AlwaysNotTaken(), width=0)


class TestFetchWithTraceCache:
    SOURCE = """
        nop
        j mid
        nop
      mid:
        nop
        j end
        nop
      end:
        halt
    """

    def test_first_pass_misses_then_hits(self):
        tc = TraceCache(num_sets=64, trace_length=8, max_branches=2)
        program = assemble(self.SOURCE)
        fetch = FetchUnit(program, AlwaysNotTaken(), width=8, trace_cache=tc)
        # conventional fetch: stops at the taken jump
        assert fetch.fetch_cycle() == [0, 1]
        assert tc.stats.misses >= 1
        # rerun from the start: the filled trace crosses both jumps
        fetch.redirect(0)
        assert fetch.fetch_cycle() == [0, 1, 3, 4, 6]
        assert tc.stats.hits >= 1

    def test_trace_fetch_raises_fetch_bandwidth(self):
        tc = TraceCache(num_sets=64, trace_length=8, max_branches=2)
        program = assemble(self.SOURCE)
        with_tc = FetchUnit(program, AlwaysNotTaken(), width=8, trace_cache=tc)
        without = FetchUnit(program, AlwaysNotTaken(), width=8)

        def cycles_to_fetch_all(fetch):
            count = 0
            for _ in range(20):
                if fetch.stalled():
                    break
                fetch.fetch_cycle()
                count += 1
            return count

        cold = cycles_to_fetch_all(with_tc)
        with_tc.redirect(0)
        warm = cycles_to_fetch_all(with_tc)
        conventional = cycles_to_fetch_all(without)
        assert warm < conventional
        assert warm < cold
