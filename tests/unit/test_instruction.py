"""Unit tests for the Instruction value type and its operand invariants."""

from dataclasses import replace

import pytest

from repro.isa import Instruction, Opcode


class TestConstruction:
    def test_r3_requires_all_three_registers(self):
        inst = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert (inst.rd, inst.rs1, inst.rs2) == (1, 2, 3)

    def test_r3_missing_operand_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, rd=1, rs1=2)

    def test_r3_extra_operand_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3, imm=4)

    def test_none_format_takes_no_operands(self):
        Instruction(Opcode.HALT)
        with pytest.raises(ValueError):
            Instruction(Opcode.HALT, rd=1)

    def test_load_fields(self):
        inst = Instruction(Opcode.LW, rd=4, rs1=5, imm=8)
        assert inst.reads == (5,)
        assert inst.writes == (4,)

    def test_store_fields(self):
        inst = Instruction(Opcode.SW, rs1=5, rs2=4, imm=0)
        assert set(inst.reads) == {4, 5}
        assert inst.writes == ()

    def test_branch_fields(self):
        inst = Instruction(Opcode.BEQ, rs1=1, rs2=2, target=7)
        assert inst.reads == (1, 2)
        assert inst.writes == ()
        assert inst.is_branch and inst.is_control

    def test_jump_is_control_not_branch(self):
        inst = Instruction(Opcode.J, target=0)
        assert inst.is_control and not inst.is_branch


class TestPaperConstraint:
    """The ISA must obey: each instruction reads <= 2 and writes <= 1 registers."""

    @pytest.mark.parametrize("op", list(Opcode))
    def test_reads_at_most_two_writes_at_most_one(self, op):
        inst = _make_any(op)
        assert len(inst.reads) <= 2
        assert len(inst.writes) <= 1


_OPERANDS = ("rd", "rs1", "rs2", "imm", "target")


class TestOperandMessages:
    """The exact error for each operand an opcode's format misses or forbids."""

    @pytest.mark.parametrize("field", _OPERANDS)
    @pytest.mark.parametrize("op", list(Opcode))
    def test_one_wrong_operand(self, op, field):
        valid = _make_any(op)
        if getattr(valid, field) is None:
            message = f"{op.mnemonic}: unexpected operand {field}=9"
            wrong = 9
        else:
            message = f"{op.mnemonic}: missing operand {field}"
            wrong = None
        with pytest.raises(ValueError) as raised:
            replace(valid, **{field: wrong})
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"rs1": 2, "rs2": 3, "imm": 4}, "add: missing operand rd"),
            ({"rd": 1, "rs1": 2, "imm": 4, "target": 5}, "add: missing operand rs2"),
            ({"rd": 1, "rs1": 2, "rs2": 3, "imm": 4, "target": 5}, "add: unexpected operand imm=4"),
        ],
    )
    def test_the_first_wrong_operand_is_named(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            Instruction(Opcode.ADD, **kwargs)
        assert str(raised.value) == message


def _make_any(op: Opcode) -> Instruction:
    """Construct an arbitrary valid instruction of opcode *op*."""
    from repro.isa.opcodes import Format

    fmt = op.fmt
    if fmt is Format.R3:
        return Instruction(op, rd=1, rs1=2, rs2=3)
    if fmt is Format.R2:
        return Instruction(op, rd=1, rs1=2)
    if fmt is Format.I2:
        return Instruction(op, rd=1, rs1=2, imm=5)
    if fmt is Format.I1:
        return Instruction(op, rd=1, imm=5)
    if fmt is Format.MEM:
        if op is Opcode.LW:
            return Instruction(op, rd=1, rs1=2, imm=0)
        return Instruction(op, rs1=2, rs2=3, imm=0)
    if fmt is Format.B2:
        return Instruction(op, rs1=1, rs2=2, target=0)
    if fmt is Format.J:
        return Instruction(op, target=0)
    return Instruction(op)


class TestStr:
    def test_r3(self):
        assert str(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)) == "add r1, r2, r3"

    def test_load(self):
        assert str(Instruction(Opcode.LW, rd=4, rs1=5, imm=8)) == "lw r4, 8(r5)"

    def test_store(self):
        assert str(Instruction(Opcode.SW, rs2=4, rs1=5, imm=0)) == "sw r4, 0(r5)"

    def test_branch(self):
        assert str(Instruction(Opcode.BEQ, rs1=1, rs2=0, target=9)) == "beq r1, r0, @9"

    def test_halt(self):
        assert str(Instruction(Opcode.HALT)) == "halt"


class TestHashability:
    def test_equal_instructions_hash_equal(self):
        a = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        b = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_in_sets(self):
        insts = {Instruction(Opcode.NOP), Instruction(Opcode.NOP), Instruction(Opcode.HALT)}
        assert len(insts) == 2
