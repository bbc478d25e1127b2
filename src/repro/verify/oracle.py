"""The architectural reference model for differential testing.

The oracle is the sequential interpreter (:mod:`repro.isa.interpreter`)
— the single source of truth for instruction semantics.  Every engine
backend is compared against it on four axes:

* the final register file,
* the final memory image,
* the committed dynamic instruction stream (static index, result,
  effective address, branch outcome, next PC), and
* the halt status.

:func:`run_oracle` packages one golden run into an :class:`OracleResult`
whose :attr:`~OracleResult.commits` tuples are directly comparable with
:func:`commit_stream` applied to a :class:`~repro.ultrascalar.processor.
ProcessorResult` — the comparison :mod:`repro.verify.diff` performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.isa.interpreter import MachineState, StepOutcome, run_program
from repro.isa.program import Program

#: one committed dynamic instruction, reduced to its architecturally
#: visible effects: (static_index, result, address, taken, next_pc)
Commit = tuple[int, int | None, int | None, bool | None, int]


#: a step's (static_index, result, address, taken, next_pc); the slots
#: are the same in a StepOutcome and in an engine's commit-log row
_commit_of = itemgetter(0, 3, 4, 5, 6)


def commit_stream(committed) -> list[Commit]:
    """Reduce committed instructions to comparable tuples.

    *committed* is a list of :class:`StepOutcome` (an interpreter trace,
    or ``ProcessorResult.committed``) or an engine's commit log
    (``ProcessorResult.commit_log``), which needs no record objects.
    """
    return list(map(_commit_of, committed))


@dataclass(frozen=True)
class OracleResult:
    """What the architectural reference produced for one program."""

    registers: list[int]
    memory: dict[int, int]
    commits: list[Commit]
    halted: bool
    #: the golden dynamic trace (the dataflow baseline schedules it)
    trace: list[StepOutcome] = field(default_factory=list, repr=False, compare=False)

    @property
    def dynamic_length(self) -> int:
        """Number of dynamic instructions the program executes."""
        return len(self.commits)


def run_oracle(
    program: Program,
    initial_registers: list[int] | None = None,
    memory_image: dict[int, int] | None = None,
    max_steps: int = 1_000_000,
) -> OracleResult:
    """Run *program* through the sequential interpreter.

    The initial state mirrors what the engines receive: *initial_registers*
    (zero-padded to the machine's register count) and a preloaded
    *memory_image*.
    """
    registers = list(initial_registers or [])
    registers.extend([0] * (program.spec.num_registers - len(registers)))
    state = MachineState(registers, dict(memory_image or {}))
    golden = run_program(program, state=state, max_steps=max_steps)
    return OracleResult(
        registers=list(golden.state.registers),
        memory=dict(golden.state.memory),
        commits=commit_stream(golden.trace),
        halted=golden.halted,
        trace=golden.trace,
    )
