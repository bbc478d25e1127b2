"""Unit tests for the golden sequential interpreter."""

import pytest

from repro.isa import InterpreterError, MachineState, assemble, run_program
from repro.isa.interpreter import BRANCH_OPS
from repro.isa.opcodes import Opcode
from repro.util.bitops import WORD_MASK, to_unsigned


def run(source, **kwargs):
    return run_program(assemble(source), **kwargs)


class TestArithmetic:
    def test_add(self):
        r = run("li r1, 2\nli r2, 3\nadd r3, r1, r2\nhalt")
        assert r.state.registers[3] == 5

    def test_add_wraps(self):
        r = run("li r1, -1\nli r2, 2\nadd r3, r1, r2\nhalt")
        assert r.state.registers[1] == WORD_MASK
        assert r.state.registers[3] == 1

    def test_sub_negative_result(self):
        r = run("li r1, 3\nli r2, 5\nsub r3, r1, r2\nhalt")
        assert r.state.registers[3] == to_unsigned(-2)

    def test_mul(self):
        r = run("li r1, -4\nli r2, 6\nmul r3, r1, r2\nhalt")
        assert r.state.registers[3] == to_unsigned(-24)

    def test_div_truncates_toward_zero(self):
        r = run("li r1, -7\nli r2, 2\ndiv r3, r1, r2\nhalt")
        assert r.state.registers[3] == to_unsigned(-3)

    def test_div_by_zero_gives_minus_one(self):
        r = run("li r1, 7\nli r2, 0\ndiv r3, r1, r2\nhalt")
        assert r.state.registers[3] == WORD_MASK

    def test_div_overflow(self):
        # INT_MIN / -1 -> INT_MIN (RISC-V convention)
        r = run("li r1, 1\nslli r1, r1, 31\nli r2, -1\ndiv r3, r1, r2\nhalt")
        assert r.state.registers[3] == 1 << 31

    def test_rem_sign_follows_dividend(self):
        r = run("li r1, -7\nli r2, 2\nrem r3, r1, r2\nhalt")
        assert r.state.registers[3] == to_unsigned(-1)

    def test_rem_by_zero_gives_dividend(self):
        r = run("li r1, 9\nli r2, 0\nrem r3, r1, r2\nhalt")
        assert r.state.registers[3] == 9

    def test_logic_ops(self):
        r = run(
            "li r1, 0xFF\nli r2, 0x0F\n"
            "and r3, r1, r2\nor r4, r1, r2\nxor r5, r1, r2\nnot r6, r2\nhalt"
        )
        assert r.state.registers[3] == 0x0F
        assert r.state.registers[4] == 0xFF
        assert r.state.registers[5] == 0xF0
        assert r.state.registers[6] == to_unsigned(~0x0F)

    def test_shifts(self):
        r = run(
            "li r1, -8\nli r2, 1\n"
            "sll r3, r1, r2\nsrl r4, r1, r2\nsra r5, r1, r2\nhalt"
        )
        assert r.state.registers[3] == to_unsigned(-16)
        assert r.state.registers[4] == to_unsigned(-8) >> 1
        assert r.state.registers[5] == to_unsigned(-4)

    def test_shift_amount_masked_to_5_bits(self):
        r = run("li r1, 1\nli r2, 33\nsll r3, r1, r2\nhalt")
        assert r.state.registers[3] == 2

    def test_slt_signed_vs_unsigned(self):
        r = run("li r1, -1\nli r2, 1\nslt r3, r1, r2\nsltu r4, r1, r2\nhalt")
        assert r.state.registers[3] == 1  # -1 < 1 signed
        assert r.state.registers[4] == 0  # 0xFFFFFFFF > 1 unsigned

    def test_lui(self):
        r = run("lui r1, 1\nhalt")
        assert r.state.registers[1] == 1 << 16

    def test_neg_mov(self):
        r = run("li r1, 5\nneg r2, r1\nmov r3, r2\nhalt")
        assert r.state.registers[2] == to_unsigned(-5)
        assert r.state.registers[3] == to_unsigned(-5)


class TestMemory:
    def test_store_then_load(self):
        r = run("li r1, 100\nli r2, 42\nsw r2, 4(r1)\nlw r3, 4(r1)\nhalt")
        assert r.state.registers[3] == 42
        assert r.state.memory[104] == 42

    def test_uninitialized_memory_reads_zero(self):
        r = run("li r1, 8\nlw r2, 0(r1)\nhalt")
        assert r.state.registers[2] == 0

    def test_unaligned_load_rejected(self):
        with pytest.raises(InterpreterError, match="unaligned"):
            run("li r1, 2\nlw r2, 0(r1)\nhalt")

    def test_unaligned_store_rejected(self):
        with pytest.raises(InterpreterError, match="unaligned"):
            run("li r1, 1\nsw r1, 0(r1)\nhalt")

    def test_negative_offset(self):
        r = run("li r1, 8\nli r2, 7\nsw r2, -4(r1)\nlw r3, -4(r1)\nhalt")
        assert r.state.registers[3] == 7
        assert r.state.memory[4] == 7


class TestControlFlow:
    def test_taken_branch_skips(self):
        r = run("li r1, 1\nbeq r1, r1, end\nli r2, 99\nend: halt")
        assert r.state.registers[2] == 0

    def test_not_taken_branch_falls_through(self):
        r = run("li r1, 1\nbne r1, r1, end\nli r2, 99\nend: halt")
        assert r.state.registers[2] == 99

    def test_loop_countdown(self):
        r = run(
            """
            li r1, 5
            li r2, 0
            loop:
              add r2, r2, r1
              addi r1, r1, -1
              bne r1, r0, loop
            halt
            """
        )
        assert r.state.registers[2] == 15
        assert r.halted

    def test_signed_branches(self):
        r = run("li r1, -1\nli r2, 1\nblt r1, r2, yes\nli r3, 1\nyes: halt")
        assert r.state.registers[3] == 0
        r = run("li r1, -1\nli r2, 1\nbltu r1, r2, yes\nli r3, 1\nyes: halt")
        assert r.state.registers[3] == 1  # 0xFFFFFFFF not < 1 unsigned

    def test_falling_off_end_is_not_halted(self):
        r = run("nop")
        assert not r.halted
        assert r.dynamic_length == 1

    def test_runaway_loop_detected(self):
        with pytest.raises(InterpreterError, match="exceeded"):
            run("top: j top", max_steps=100)


class TestTrace:
    def test_trace_records_operands_and_results(self):
        r = run("li r1, 6\nli r2, 2\ndiv r3, r1, r2\nhalt")
        step = r.trace[2]
        assert step.operand_values == (6, 2)
        assert step.result == 3

    def test_trace_records_memory_address(self):
        r = run("li r1, 100\nsw r1, 4(r1)\nhalt")
        assert r.trace[1].address == 104

    def test_trace_records_branch_outcome(self):
        r = run("li r1, 1\nbeq r1, r0, end\nend: halt")
        assert r.trace[1].taken is False

    def test_next_pc_sequence_is_consistent(self):
        r = run("li r1, 2\nbeq r1, r1, end\nnop\nend: halt")
        pcs = [step.static_index for step in r.trace]
        assert pcs == [0, 1, 3]
        for prev, nxt in zip(r.trace, r.trace[1:]):
            assert prev.next_pc == nxt.static_index


class TestBranchTaken:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Opcode.BEQ, 5, 5, True),
            (Opcode.BEQ, 5, 6, False),
            (Opcode.BNE, 5, 6, True),
            (Opcode.BLT, to_unsigned(-2), 1, True),
            (Opcode.BGE, 1, to_unsigned(-2), True),
            (Opcode.BLTU, to_unsigned(-2), 1, False),
            (Opcode.BGEU, to_unsigned(-2), 1, True),
        ],
    )
    def test_outcomes(self, op, a, b, expected):
        assert BRANCH_OPS[op](a, b) is expected

    def test_rejects_non_branch(self):
        assert Opcode.ADD not in BRANCH_OPS


class TestMachineState:
    def test_initial_state_respected(self):
        state = MachineState.zeroed(32)
        state.registers[1] = 7
        r = run_program(assemble("add r2, r1, r1\nhalt"), state=state)
        assert r.state.registers[2] == 14
