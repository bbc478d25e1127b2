"""The :class:`Instruction` value type.

An instruction is immutable and hashable; the dynamic (per-execution)
state lives in the processor models, never here.  The accessors
:meth:`Instruction.reads` and :meth:`Instruction.writes` expose the
read/write register sets that every datapath (mux rings, CSPP trees,
comparator columns) consumes; the ISA guarantees ``len(reads) <= 2`` and
``len(writes) <= 1`` as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import Format, Opcode


#: operand fields each format uses; MEM lists ``lw rd, imm(rs1)``
_FIELDS: dict[Format, tuple[str, ...]] = {
    Format.R3: ("rd", "rs1", "rs2"),
    Format.R2: ("rd", "rs1"),
    Format.I2: ("rd", "rs1", "imm"),
    Format.I1: ("rd", "imm"),
    Format.MEM: ("rd", "rs1", "imm"),
    Format.B2: ("rs1", "rs2", "target"),
    Format.J: ("target",),
    Format.NONE: (),
}
#: ``sw rs2, imm(rs1)`` stores rs2 where a load writes rd
_SW_FIELDS = ("rs1", "rs2", "imm")
_OPERANDS = ("rd", "rs1", "rs2", "imm", "target")
#: per opcode code, whether each of ``_OPERANDS`` must be None
_ABSENT = {
    op.code: tuple(
        field not in (_SW_FIELDS if op is Opcode.SW else _FIELDS[op.fmt]) for field in _OPERANDS
    )
    for op in Opcode
}


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Fields not used by the opcode's format must be ``None``; the
    constructor enforces this so that malformed instructions are
    impossible to represent.

    Attributes:
        op: the opcode.
        rd: destination register (written), if any.
        rs1: first source register, if any.
        rs2: second source register, if any.
        imm: immediate operand (16-bit signed for I-format/MEM offsets).
        target: branch/jump target as a *static instruction index*.
    """

    op: Opcode
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int | None = None
    target: int | None = None

    def __post_init__(self) -> None:
        absent = (
            self.rd is None,
            self.rs1 is None,
            self.rs2 is None,
            self.imm is None,
            self.target is None,
        )
        expected = _ABSENT[self.op.code]
        if absent == expected:
            return
        for field, is_absent, must_be in zip(_OPERANDS, absent, expected):
            if is_absent and not must_be:
                raise ValueError(f"{self.op.mnemonic}: missing operand {field}")
            if must_be and not is_absent:
                raise ValueError(
                    f"{self.op.mnemonic}: unexpected operand {field}={getattr(self, field)}"
                )

    @property
    def reads(self) -> tuple[int, ...]:
        """Logical registers this instruction reads (0, 1, or 2 of them)."""
        rs1, rs2 = self.rs1, self.rs2
        if rs2 is None:
            return () if rs1 is None else (rs1,)
        return (rs2,) if rs1 is None else (rs1, rs2)

    @property
    def writes(self) -> tuple[int, ...]:
        """Logical registers this instruction writes (0 or 1 of them)."""
        return (self.rd,) if self.rd is not None else ()

    @property
    def is_load(self) -> bool:
        """True for memory loads."""
        return self.op.is_load

    @property
    def is_store(self) -> bool:
        """True for memory stores."""
        return self.op.is_store

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.op.is_memory

    @property
    def is_branch(self) -> bool:
        """True for conditional branches (not unconditional jumps)."""
        return self.op.is_branch

    @property
    def is_control(self) -> bool:
        """True for any control transfer (branch or jump)."""
        return self.op.is_control

    @property
    def is_halt(self) -> bool:
        """True for the HALT instruction."""
        return self.op.is_halt

    def __str__(self) -> str:
        fmt = self.op.fmt
        m = self.op.mnemonic
        if fmt is Format.R3:
            return f"{m} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if fmt is Format.R2:
            return f"{m} r{self.rd}, r{self.rs1}"
        if fmt is Format.I2:
            return f"{m} r{self.rd}, r{self.rs1}, {self.imm}"
        if fmt is Format.I1:
            return f"{m} r{self.rd}, {self.imm}"
        if fmt is Format.MEM:
            if self.op is Opcode.LW:
                return f"{m} r{self.rd}, {self.imm}(r{self.rs1})"
            return f"{m} r{self.rs2}, {self.imm}(r{self.rs1})"
        if fmt is Format.B2:
            return f"{m} r{self.rs1}, r{self.rs2}, @{self.target}"
        if fmt is Format.J:
            return f"{m} @{self.target}"
        return m
