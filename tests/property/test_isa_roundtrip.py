"""Property tests: the ISA's textual and binary codecs are lossless.

Round trip one: ``Program -> disassemble -> assemble`` reproduces the
exact instruction tuple (the contract the fuzz reproducer files in
:mod:`repro.verify.fuzz` rely on).  Round trip two: ``encode -> decode``
over the 32-bit binary format reproduces every encodable instruction.
Plus the :mod:`repro.util.bitops` edge cases the codecs sit on: zero
width fields and the power-of-two boundary values.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.encoding import EncodingError, decode_instruction, encode_instruction
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
    """Any single encodable instruction (targets bounded by *max_target*)."""
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


class TestBinaryRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(instructions())
    def test_decode_of_encode_is_identity(self, inst):
        assert decode_instruction(encode_instruction(inst)) == inst

    @settings(max_examples=300, deadline=None)
    @given(instructions())
    def test_encoding_fits_a_word(self, inst):
        assert 0 <= encode_instruction(inst) < (1 << 32)

    def test_out_of_range_operands_are_rejected(self):
        with pytest.raises(EncodingError):
            encode_instruction(
                Instruction(Opcode.ADDI, rd=0, rs1=0, imm=1 << 15)
            )
        with pytest.raises(EncodingError):
            encode_instruction(
                Instruction(Opcode.BEQ, rs1=0, rs2=0, target=1 << 16)
            )
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.J, target=1 << 26))


class TestBitopsEdgeCases:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(1 << 40), 1 << 40), st.integers(1, 64))
    def test_signed_unsigned_round_trip(self, value, bits):
        # reducing then re-reducing is stable in both views
        unsigned = to_unsigned(value, bits)
        assert 0 <= unsigned < (1 << bits)
        assert to_unsigned(to_signed(value, bits), bits) == unsigned
        assert to_signed(to_unsigned(value, bits), bits) == to_signed(value, bits)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, (1 << 16) - 1), st.integers(1, 16))
    def test_sign_extend_preserves_signed_value(self, value, from_bits):
        extended = to_unsigned(to_signed(to_unsigned(value, from_bits), from_bits), 32)
        assert to_signed(extended, 32) == to_signed(value, from_bits)

    def test_zero_width_field(self):
        # a 0-bit field holds only the value 0 in the unsigned view...
        assert to_unsigned(12345, 0) == 0
        # ...and has no signed interpretation at all
        with pytest.raises(ValueError):
            to_signed(12345, 0)

    @pytest.mark.parametrize("bits", [1, 2, 8, 16, 31, 32])
    def test_power_of_two_boundaries(self, bits):
        top = 1 << (bits - 1)
        # the most positive value stays itself
        assert to_signed(top - 1, bits) == top - 1
        # the sign-boundary value wraps to the most negative
        assert to_signed(top, bits) == -top
        # -1 is all ones
        assert to_unsigned(-1, bits) == (1 << bits) - 1
        # sign-extending the boundary keeps it negative at full width
        assert to_signed(to_unsigned(to_signed(top, bits)), 32) == -top
