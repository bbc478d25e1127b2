"""A simple RISC instruction-set architecture.

The paper's empirical study implements "a very simple RISC instruction set
architecture [with] 32 32-bit logical registers ... Each instruction in the
architecture reads at most two registers and writes at most one."  This
subpackage provides exactly that ISA:

* :mod:`repro.isa.opcodes` -- the opcode set and per-opcode metadata.
* :mod:`repro.isa.instruction` -- the :class:`Instruction` value type and
  the read-set / write-set accessors the datapaths use.
* :mod:`repro.isa.registers` -- the :class:`MachineSpec` describing ``L``
  logical registers.
* :mod:`repro.isa.assembler` -- a two-pass text assembler with labels.
* :mod:`repro.isa.latency` -- the functional-unit latencies, a constant
  table (the paper's Figure 3 uses divide=10, multiply=3, add=1).
* :mod:`repro.isa.interpreter` -- the golden sequential interpreter that
  every processor model is differentially tested against.
"""

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instruction import Instruction
from repro.isa.interpreter import InterpreterError, MachineState, StepOutcome, run_program
from repro.isa.opcodes import Opcode, OpClass
from repro.isa.program import Program
from repro.isa.registers import MachineSpec

__all__ = [
    "AssemblerError",
    "assemble",
    "Instruction",
    "InterpreterError",
    "MachineState",
    "StepOutcome",
    "run_program",
    "Opcode",
    "OpClass",
    "Program",
    "MachineSpec",
]
