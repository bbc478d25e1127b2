"""Property tests: the ISA's textual codec is lossless.

``Program -> disassemble -> assemble`` reproduces the exact instruction
tuple (the contract the fuzz reproducer files in :mod:`repro.verify.fuzz`
rely on).  Plus the :mod:`repro.util.bitops` word views the interpreter
sits on: reducing then re-reducing a value is stable in both.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Opcode
from repro.isa.program import Program
from repro.util.bitops import to_signed, to_unsigned

REG = st.integers(0, 31)
IMM16 = st.integers(-(1 << 15), (1 << 15) - 1)

_BY_FORMAT = {
    fmt: [op for op in Opcode if op.fmt is fmt] for fmt in Format
}


@st.composite
def instructions(draw, max_target: int = (1 << 16) - 1):
    """Any single instruction (targets bounded by *max_target*)."""
    fmt = draw(st.sampled_from(list(Format)))
    op = draw(st.sampled_from(_BY_FORMAT[fmt]))
    if fmt is Format.R3:
        return Instruction(op, rd=draw(REG), rs1=draw(REG), rs2=draw(REG))
    if fmt is Format.R2:
        return Instruction(op, rd=draw(REG), rs1=draw(REG))
    if fmt is Format.I2:
        return Instruction(op, rd=draw(REG), rs1=draw(REG), imm=draw(IMM16))
    if fmt is Format.I1:
        return Instruction(op, rd=draw(REG), imm=draw(IMM16))
    if fmt is Format.MEM:
        if op is Opcode.LW:
            return Instruction(op, rd=draw(REG), rs1=draw(REG), imm=draw(IMM16))
        return Instruction(op, rs1=draw(REG), rs2=draw(REG), imm=draw(IMM16))
    if fmt is Format.B2:
        return Instruction(
            op, rs1=draw(REG), rs2=draw(REG), target=draw(st.integers(0, max_target))
        )
    if fmt is Format.J:
        return Instruction(op, target=draw(st.integers(0, max_target)))
    return Instruction(op)


@st.composite
def programs(draw):
    """Instruction sequences whose targets stay inside the program."""
    count = draw(st.integers(1, 24))
    body = [
        draw(instructions(max_target=count)) for _ in range(count)
    ]
    return Program.from_instructions(body)


class TestTextualRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_assemble_of_disassemble_is_identity(self, program):
        rebuilt = assemble(program.disassemble())
        assert rebuilt.instructions == program.instructions

    @settings(max_examples=150, deadline=None)
    @given(instructions(max_target=99))
    def test_str_of_instruction_reassembles(self, inst):
        # nop padding so any rendered "@n" target index exists
        source = "\n".join(["nop"] * 100 + [str(inst)])
        rebuilt = assemble(source)
        assert rebuilt.instructions[-1] == inst


class TestBitopsEdgeCases:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(1 << 40), 1 << 40))
    def test_signed_unsigned_round_trip(self, value):
        # reducing then re-reducing is stable in both views
        unsigned = to_unsigned(value)
        assert 0 <= unsigned < (1 << 32)
        assert to_unsigned(to_signed(value)) == unsigned
        assert to_signed(to_unsigned(value)) == to_signed(value)
