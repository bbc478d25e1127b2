"""The golden sequential interpreter.

Every processor model in this repository — Ultrascalar I, Ultrascalar II
and the hybrid — is differentially tested against this interpreter:
same program, same initial state, same final registers and memory, and
the same dynamic instruction trace, which the dataflow baseline
schedules.

Arithmetic follows RISC-V conventions for the edge cases so that all
models agree on well-defined results: division by zero yields all-ones
(-1), remainder by zero yields the dividend, and the signed-overflow case
``INT_MIN / -1`` yields ``INT_MIN`` with remainder 0.  Shifts use the low
five bits of the shift amount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Decoded, Program
from repro.util.bitops import WORD_MASK, to_signed, to_unsigned


class InterpreterError(RuntimeError):
    """Raised on invalid execution (bad PC, unaligned access, runaway loop)."""


class StepLimitExceeded(InterpreterError):
    """Raised when a run hits its step limit; ``partial`` holds the run so far."""

    def __init__(self, message: str, partial: "ExecutionResult"):
        super().__init__(message)
        self.partial = partial


@dataclass
class MachineState:
    """Architectural state: registers and a sparse word memory."""

    registers: list[int]
    memory: dict[int, int] = field(default_factory=dict)

    @staticmethod
    def zeroed(num_registers: int) -> "MachineState":
        """A state with all registers zero and empty memory."""
        return MachineState([0] * num_registers)

    def load_word(self, address: int) -> int:
        """Read the 32-bit word at byte *address* (must be 4-aligned)."""
        if address % 4 != 0:
            raise InterpreterError(f"unaligned load at {address:#x}")
        return self.memory.get(address, 0)

    def store_word(self, address: int, value: int) -> None:
        """Write the 32-bit word at byte *address* (must be 4-aligned)."""
        if address % 4 != 0:
            raise InterpreterError(f"unaligned store at {address:#x}")
        self.memory[address] = value & WORD_MASK


class StepOutcome(NamedTuple):
    """One dynamic instruction execution, recorded into the trace.

    Attributes:
        static_index: position of the instruction in the program.
        instruction: the static instruction.
        operand_values: the values read for (rs1, rs2), where present.
        result: value written to ``rd`` (``None`` if no write).
        address: effective address for loads/stores (``None`` otherwise).
        taken: branch outcome (``None`` for non-control instructions;
            unconditional jumps record ``True``).
        next_pc: the PC after this instruction.
    """

    static_index: int
    instruction: Instruction
    operand_values: tuple[int, ...]
    result: int | None
    address: int | None
    taken: bool | None
    next_pc: int


@dataclass
class ExecutionResult:
    """The result of running a whole program."""

    state: MachineState
    trace: list[StepOutcome]
    halted: bool

    @property
    def dynamic_length(self) -> int:
        """Number of dynamic instructions executed (including HALT)."""
        return len(self.trace)


def _div(a: int, b: int, imm: int | None) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return WORD_MASK  # RISC-V: division by zero -> -1
    if sa == -(1 << 31) and sb == -1:
        return to_unsigned(-(1 << 31))  # overflow -> INT_MIN
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return to_unsigned(quotient)


def _rem(a: int, b: int, imm: int | None) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return a  # RISC-V: remainder by zero -> dividend
    if sa == -(1 << 31) and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return to_unsigned(remainder)


#: each computational opcode's semantics: (a, b, imm) -> 32-bit result
ALU_OPS: dict[Opcode, Callable[[int, int, int | None], int]] = {
    Opcode.ADD: lambda a, b, imm: to_unsigned(a + b),
    Opcode.ADDI: lambda a, b, imm: to_unsigned(a + imm),
    Opcode.SUB: lambda a, b, imm: to_unsigned(a - b),
    Opcode.AND: lambda a, b, imm: a & b,
    Opcode.ANDI: lambda a, b, imm: a & to_unsigned(imm),
    Opcode.OR: lambda a, b, imm: a | b,
    Opcode.ORI: lambda a, b, imm: a | to_unsigned(imm),
    Opcode.XOR: lambda a, b, imm: a ^ b,
    Opcode.XORI: lambda a, b, imm: a ^ to_unsigned(imm),
    Opcode.SLL: lambda a, b, imm: to_unsigned(a << (b & 0x1F)),
    Opcode.SLLI: lambda a, b, imm: to_unsigned(a << (imm & 0x1F)),
    Opcode.SRL: lambda a, b, imm: a >> (b & 0x1F),
    Opcode.SRLI: lambda a, b, imm: a >> (imm & 0x1F),
    Opcode.SRA: lambda a, b, imm: to_unsigned(to_signed(a) >> (b & 0x1F)),
    Opcode.SLT: lambda a, b, imm: int(to_signed(a) < to_signed(b)),
    Opcode.SLTI: lambda a, b, imm: int(to_signed(a) < imm),
    Opcode.SLTU: lambda a, b, imm: int(a < b),
    Opcode.MUL: lambda a, b, imm: to_unsigned(to_signed(a) * to_signed(b)),
    Opcode.MULI: lambda a, b, imm: to_unsigned(to_signed(a) * imm),
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    Opcode.MOV: lambda a, b, imm: a,
    Opcode.NOT: lambda a, b, imm: to_unsigned(~a),
    Opcode.NEG: lambda a, b, imm: to_unsigned(-to_signed(a)),
    Opcode.LI: lambda a, b, imm: to_unsigned(imm),
    Opcode.LUI: lambda a, b, imm: to_unsigned(imm << 16),
}

#: each conditional branch's outcome on operand values (a, b)
BRANCH_OPS: dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Opcode.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Opcode.BLTU: lambda a, b: a < b,
    Opcode.BGEU: lambda a, b: a >= b,
}


def _by_code() -> list[Callable | None]:
    table: list[Callable | None] = [None] * 64  # Opcode.code has six bits
    for op, semantics in (*ALU_OPS.items(), *BRANCH_OPS.items()):
        table[op.code] = semantics
    return table


#: :data:`ALU_OPS` and :data:`BRANCH_OPS` by ``Opcode.code`` (``None`` for
#: the rest): looked up per dynamic instruction by a decoded row's int
#: ``code``, where an enum key would cost a pure-Python ``__hash__`` call
SEMANTICS = _by_code()


def _execute(
    row: Decoded, inst: Instruction, static_index: int, state: MachineState
) -> StepOutcome:
    """Execute one decoded instruction against *state*, mutating it.

    This is the single source of truth for instruction semantics: the
    processor models compute through the same :data:`ALU_OPS` and
    :data:`BRANCH_OPS` functions (looked up in :data:`SEMANTICS`), and
    are diffed against its trace.
    """
    regs = state.registers
    operands = tuple([regs[reg] for reg in row.sources])
    a = operands[0] if operands else 0
    b = operands[1] if len(operands) > 1 else 0

    result: int | None = None
    address: int | None = None
    taken: bool | None = None
    next_pc = static_index + 1

    if row.is_load:
        address = to_unsigned(a + row.imm)
        result = regs[row.dest] = state.load_word(address)
    elif row.is_store:
        address = to_unsigned(a + row.imm)
        state.store_word(address, b)
    elif row.is_branch:
        taken = SEMANTICS[row.code](a, b)
        if taken:
            next_pc = row.target
    elif row.is_control:
        taken = True
        next_pc = row.target
    elif row.uses_alu:  # NOP and HALT compute nothing
        result = regs[row.dest] = SEMANTICS[row.code](a, b, row.imm)

    return StepOutcome(static_index, inst, operands, result, address, taken, next_pc)


def run_program(
    program: Program,
    state: MachineState | None = None,
    max_steps: int = 1_000_000,
) -> ExecutionResult:
    """Run *program* to HALT (or falling off the end) and return the result.

    Raises :class:`StepLimitExceeded` (an :class:`InterpreterError`) if
    more than *max_steps* dynamic instructions execute (runaway loop
    protection); it carries the trace up to the limit.
    """
    state = state if state is not None else MachineState.zeroed(program.spec.num_registers)
    trace: list[StepOutcome] = []
    pc = 0
    halted = False
    rows, instructions = program.decoded, program.instructions
    while 0 <= pc < len(rows):
        if len(trace) >= max_steps:
            raise StepLimitExceeded(
                f"exceeded {max_steps} steps without halting",
                ExecutionResult(state=state, trace=trace, halted=False),
            )
        row = rows[pc]
        outcome = _execute(row, instructions[pc], pc, state)
        trace.append(outcome)
        if row.is_halt:
            halted = True
            break
        pc = outcome.next_pc
    return ExecutionResult(state=state, trace=trace, halted=halted)
