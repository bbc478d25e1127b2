"""The golden sequential interpreter.

Every processor model in this repository — Ultrascalar I, Ultrascalar II,
the hybrid, and the dataflow baseline — is differentially tested against
this interpreter: same program, same initial state, same final registers
and memory, and the same dynamic instruction trace.

Arithmetic follows RISC-V conventions for the edge cases so that all
models agree on well-defined results: division by zero yields all-ones
(-1), remainder by zero yields the dividend, and the signed-overflow case
``INT_MIN / -1`` yields ``INT_MIN`` with remainder 0.  Shifts use the low
five bits of the shift amount.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.latency import LatencyModel
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
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

    def copy(self) -> "MachineState":
        """Deep copy (registers and memory)."""
        return MachineState(list(self.registers), dict(self.memory))

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


@dataclass(frozen=True)
class StepOutcome:
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

    def total_latency_cycles(self, latencies: LatencyModel) -> int:
        """Sum of per-instruction latencies: a purely sequential machine's runtime."""
        return sum(latencies.latency_of(step.instruction.op) for step in self.trace)


def alu_result(op: Opcode, a: int, b: int, imm: int | None) -> int:
    """Compute the 32-bit result of a computational opcode."""
    sa, sb = to_signed(a), to_signed(b)
    if op in (Opcode.ADD, Opcode.ADDI):
        return to_unsigned(a + (b if op is Opcode.ADD else imm))
    if op is Opcode.SUB:
        return to_unsigned(a - b)
    if op in (Opcode.AND, Opcode.ANDI):
        return a & (b if op is Opcode.AND else to_unsigned(imm))
    if op in (Opcode.OR, Opcode.ORI):
        return a | (b if op is Opcode.OR else to_unsigned(imm))
    if op in (Opcode.XOR, Opcode.XORI):
        return a ^ (b if op is Opcode.XOR else to_unsigned(imm))
    if op in (Opcode.SLL, Opcode.SLLI):
        shift = (b if op is Opcode.SLL else imm) & 0x1F
        return to_unsigned(a << shift)
    if op in (Opcode.SRL, Opcode.SRLI):
        shift = (b if op is Opcode.SRL else imm) & 0x1F
        return a >> shift
    if op is Opcode.SRA:
        return to_unsigned(sa >> (b & 0x1F))
    if op is Opcode.SLT:
        return int(sa < sb)
    if op is Opcode.SLTI:
        return int(sa < imm)
    if op is Opcode.SLTU:
        return int(a < b)
    if op in (Opcode.MUL, Opcode.MULI):
        return to_unsigned(sa * (sb if op is Opcode.MUL else imm))
    if op is Opcode.DIV:
        if sb == 0:
            return WORD_MASK  # RISC-V: division by zero -> -1
        if sa == -(1 << 31) and sb == -1:
            return to_unsigned(-(1 << 31))  # overflow -> INT_MIN
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return to_unsigned(quotient)
    if op is Opcode.REM:
        if sb == 0:
            return a  # RISC-V: remainder by zero -> dividend
        if sa == -(1 << 31) and sb == -1:
            return 0
        remainder = abs(sa) % abs(sb)
        if sa < 0:
            remainder = -remainder
        return to_unsigned(remainder)
    if op is Opcode.MOV:
        return a
    if op is Opcode.NOT:
        return to_unsigned(~a)
    if op is Opcode.NEG:
        return to_unsigned(-sa)
    if op is Opcode.LI:
        return to_unsigned(imm)
    if op is Opcode.LUI:
        return to_unsigned(imm << 16)
    raise InterpreterError(f"opcode {op} is not a computational opcode")


def branch_taken(op: Opcode, a: int, b: int) -> bool:
    """Evaluate a conditional branch's outcome on operand values (a, b)."""
    sa, sb = to_signed(a), to_signed(b)
    if op is Opcode.BEQ:
        return a == b
    if op is Opcode.BNE:
        return a != b
    if op is Opcode.BLT:
        return sa < sb
    if op is Opcode.BGE:
        return sa >= sb
    if op is Opcode.BLTU:
        return a < b
    if op is Opcode.BGEU:
        return a >= b
    raise InterpreterError(f"opcode {op} is not a conditional branch")


def execute_instruction(
    inst: Instruction, static_index: int, state: MachineState
) -> StepOutcome:
    """Execute one instruction against *state*, mutating it; returns the outcome.

    This is the single source of truth for instruction semantics; the
    processor models call it when an instruction's operands become ready.
    """
    regs = state.registers
    a = regs[inst.rs1] if inst.rs1 is not None else 0
    b = regs[inst.rs2] if inst.rs2 is not None else 0
    operands = tuple(
        value for value, present in ((a, inst.rs1 is not None), (b, inst.rs2 is not None)) if present
    )

    result: int | None = None
    address: int | None = None
    taken: bool | None = None
    next_pc = static_index + 1

    op = inst.op
    if op is Opcode.HALT or op is Opcode.NOP:
        pass
    elif op is Opcode.LW:
        address = to_unsigned(a + inst.imm)
        result = state.load_word(address)
        regs[inst.rd] = result
    elif op is Opcode.SW:
        address = to_unsigned(a + inst.imm)
        state.store_word(address, b)
    elif inst.is_branch:
        taken = branch_taken(op, a, b)
        if taken:
            next_pc = inst.target
    elif op is Opcode.J:
        taken = True
        next_pc = inst.target
    else:
        result = alu_result(op, a, b, inst.imm)
        regs[inst.rd] = result

    return StepOutcome(
        static_index=static_index,
        instruction=inst,
        operand_values=operands,
        result=result,
        address=address,
        taken=taken,
        next_pc=next_pc,
    )


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
    while 0 <= pc < len(program):
        if len(trace) >= max_steps:
            raise StepLimitExceeded(
                f"exceeded {max_steps} steps without halting",
                ExecutionResult(state=state, trace=trace, halted=False),
            )
        inst = program[pc]
        outcome = execute_instruction(inst, pc, state)
        trace.append(outcome)
        if inst.is_halt:
            halted = True
            break
        pc = outcome.next_pc
    return ExecutionResult(state=state, trace=trace, halted=halted)
