"""Per-opcode ALU semantics through the Ultrascalar I engine, against
the golden interpreter: R3 ops, shifts, DIV edge cases, immediates.

The cases first covered the retired NumPy ring engine; the module keeps
its name so the test IDs stay stable.
"""

import pytest

from repro.api import ProcessorConfig, build_processor
from repro.isa import Instruction, Opcode, Program
from repro.isa.interpreter import MachineState, run_program


def run_both(instructions, initial=None):
    program = Program.from_instructions(list(instructions) + [Instruction(Opcode.HALT)])
    regs = initial or [0] * 32
    golden = run_program(program, state=MachineState(list(regs)))
    config = ProcessorConfig(window_size=8, fetch_width=4)
    engine = build_processor("us1", config).run(program, initial_registers=list(regs))
    return golden.state.registers, engine.registers


OPS_R3 = [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.MUL, Opcode.DIV]


class TestOpcodes:
    @pytest.mark.parametrize("op", OPS_R3, ids=lambda o: o.mnemonic)
    @pytest.mark.parametrize("a,b", [(7, 3), (0, 5), (0xFFFFFFFF, 2), (123456, 789)])
    def test_r3_ops(self, op, a, b):
        regs = [0] * 32
        regs[1], regs[2] = a, b
        golden, engine = run_both([Instruction(op, rd=3, rs1=1, rs2=2)], regs)
        assert engine == golden

    @pytest.mark.parametrize("a,shift", [(1, 3), (0x80000000, 1), (0xF0F0F0F0, 4), (5, 33)])
    def test_shifts(self, a, shift):
        regs = [0] * 32
        regs[1], regs[2] = a, shift
        golden, engine = run_both(
            [
                Instruction(Opcode.SLL, rd=3, rs1=1, rs2=2),
                Instruction(Opcode.SRL, rd=4, rs1=1, rs2=2),
            ],
            regs,
        )
        assert engine == golden

    @pytest.mark.parametrize(
        "a,b", [(7, 0), (0, 0), (0x80000000, 0xFFFFFFFF), (100, 7), (0xFFFFFFF9, 2)]
    )
    def test_division_edge_cases(self, a, b):
        regs = [0] * 32
        regs[1], regs[2] = a, b
        golden, engine = run_both([Instruction(Opcode.DIV, rd=3, rs1=1, rs2=2)], regs)
        assert engine == golden

    @pytest.mark.parametrize("imm", [-32768, -1, 0, 1, 32767])
    def test_immediates(self, imm):
        golden, engine = run_both(
            [
                Instruction(Opcode.LI, rd=1, imm=imm),
                Instruction(Opcode.ADDI, rd=2, rs1=1, imm=imm),
                Instruction(Opcode.MULI, rd=3, rs1=1, imm=3),
            ]
        )
        assert engine == golden

    def test_mov_and_nop(self):
        regs = [0] * 32
        regs[5] = 77
        golden, engine = run_both(
            [Instruction(Opcode.MOV, rd=1, rs1=5), Instruction(Opcode.NOP)],
            regs,
        )
        assert engine == golden

    def test_duplicate_destination_commits_last_write(self):
        # two same-cycle commits to one register: last (youngest) wins
        golden, engine = run_both(
            [
                Instruction(Opcode.LI, rd=1, imm=1),
                Instruction(Opcode.LI, rd=1, imm=2),
                Instruction(Opcode.LI, rd=1, imm=3),
            ]
        )
        assert engine == golden
        assert engine[1] == 3
