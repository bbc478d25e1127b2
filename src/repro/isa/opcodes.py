"""Opcode definitions and static per-opcode metadata.

Every opcode is classified into an :class:`OpClass`, which determines its
functional-unit latency class, and carries a *format* describing which
operand fields it uses.  The ISA obeys the paper's constraint that each
instruction reads at most two registers and writes at most one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional classes; Figure 3's latency table assigns cycles per class."""

    ALU = "alu"            # single-cycle integer ops
    MUL = "mul"            # multiply
    DIV = "div"            # divide / remainder
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"      # conditional branches
    JUMP = "jump"          # unconditional control transfer
    SYSTEM = "system"      # halt, nop


class Format(enum.Enum):
    """Operand format of an opcode (which Instruction fields are used)."""

    R3 = "r3"        # rd, rs1, rs2          e.g. add rd, rs1, rs2
    R2 = "r2"        # rd, rs1               e.g. mov rd, rs1 / not rd, rs1
    I2 = "i2"        # rd, rs1, imm          e.g. addi rd, rs1, imm
    I1 = "i1"        # rd, imm               e.g. li rd, imm
    MEM = "mem"      # rd/rs2, imm(rs1)      loads and stores
    B2 = "b2"        # rs1, rs2, target      conditional branches
    J = "j"          # target                jumps
    NONE = "none"    # halt, nop


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    mnemonic: str
    op_class: OpClass
    fmt: Format
    #: the opcode's index, from 0: the latency and semantics tables
    #: are indexed by it
    code: int


class Opcode(enum.Enum):
    """The full opcode set of the reproduced RISC ISA."""

    # Three-register ALU ops
    ADD = OpInfo("add", OpClass.ALU, Format.R3, 0)
    SUB = OpInfo("sub", OpClass.ALU, Format.R3, 1)
    AND = OpInfo("and", OpClass.ALU, Format.R3, 2)
    OR = OpInfo("or", OpClass.ALU, Format.R3, 3)
    XOR = OpInfo("xor", OpClass.ALU, Format.R3, 4)
    SLL = OpInfo("sll", OpClass.ALU, Format.R3, 5)
    SRL = OpInfo("srl", OpClass.ALU, Format.R3, 6)
    SRA = OpInfo("sra", OpClass.ALU, Format.R3, 7)
    SLT = OpInfo("slt", OpClass.ALU, Format.R3, 8)
    SLTU = OpInfo("sltu", OpClass.ALU, Format.R3, 9)
    MUL = OpInfo("mul", OpClass.MUL, Format.R3, 10)
    DIV = OpInfo("div", OpClass.DIV, Format.R3, 11)
    REM = OpInfo("rem", OpClass.DIV, Format.R3, 12)

    # Two-register ops
    MOV = OpInfo("mov", OpClass.ALU, Format.R2, 13)
    NOT = OpInfo("not", OpClass.ALU, Format.R2, 14)
    NEG = OpInfo("neg", OpClass.ALU, Format.R2, 15)

    # Immediate ALU ops
    ADDI = OpInfo("addi", OpClass.ALU, Format.I2, 16)
    ANDI = OpInfo("andi", OpClass.ALU, Format.I2, 17)
    ORI = OpInfo("ori", OpClass.ALU, Format.I2, 18)
    XORI = OpInfo("xori", OpClass.ALU, Format.I2, 19)
    SLLI = OpInfo("slli", OpClass.ALU, Format.I2, 20)
    SRLI = OpInfo("srli", OpClass.ALU, Format.I2, 21)
    SLTI = OpInfo("slti", OpClass.ALU, Format.I2, 22)
    MULI = OpInfo("muli", OpClass.MUL, Format.I2, 23)

    # Register loads of immediates
    LI = OpInfo("li", OpClass.ALU, Format.I1, 24)
    LUI = OpInfo("lui", OpClass.ALU, Format.I1, 25)

    # Memory
    LW = OpInfo("lw", OpClass.LOAD, Format.MEM, 26)
    SW = OpInfo("sw", OpClass.STORE, Format.MEM, 27)

    # Control flow
    BEQ = OpInfo("beq", OpClass.BRANCH, Format.B2, 28)
    BNE = OpInfo("bne", OpClass.BRANCH, Format.B2, 29)
    BLT = OpInfo("blt", OpClass.BRANCH, Format.B2, 30)
    BGE = OpInfo("bge", OpClass.BRANCH, Format.B2, 31)
    BLTU = OpInfo("bltu", OpClass.BRANCH, Format.B2, 32)
    BGEU = OpInfo("bgeu", OpClass.BRANCH, Format.B2, 33)
    J = OpInfo("j", OpClass.JUMP, Format.J, 34)

    # System
    NOP = OpInfo("nop", OpClass.SYSTEM, Format.NONE, 35)
    HALT = OpInfo("halt", OpClass.SYSTEM, Format.NONE, 36)

    def __init__(self, info: OpInfo) -> None:
        # Plain attributes, not Enum properties: the engines read these
        # per dynamic instruction, and a property costs a Python call.
        #: the static metadata record; ``mnemonic``, ``op_class``, ``fmt``
        #: and ``code`` copy its fields
        self.info = info
        self.mnemonic = info.mnemonic
        self.op_class = info.op_class
        self.fmt = info.fmt
        self.code = info.code
        self.is_load = info.op_class is OpClass.LOAD
        self.is_store = info.op_class is OpClass.STORE
        self.is_memory = self.is_load or self.is_store
        #: conditional branches only; ``is_control`` adds the jump
        self.is_branch = info.fmt is Format.B2
        self.is_control = info.fmt in (Format.B2, Format.J)
        self.is_halt = info.mnemonic == "halt"
        #: competes for a shared ALU (everything but NOP and HALT)
        self.uses_alu = info.op_class is not OpClass.SYSTEM


#: mnemonic -> Opcode lookup used by the assembler
MNEMONICS: dict[str, Opcode] = {op.mnemonic: op for op in Opcode}

# the tables indexed by ``Opcode.code`` hold one entry per opcode, in order
assert [op.code for op in Opcode] == list(range(len(Opcode)))
