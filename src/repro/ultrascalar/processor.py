"""Shared processor configuration, results, and the default predictor.

The paper: "The three processors all implement identical instruction
sets, with identical scheduling policies.  The only differences between
the processors are in their VLSI complexities."  Behaviourally the one
place they differ is station refill: per-station (Ultrascalar I),
whole-batch (Ultrascalar II, no wrap-around), or per-cluster (hybrid):
one ring engine with cluster size 1, ``n`` or ``C``, built by
:class:`repro.api.Processor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.isa.instruction import Instruction
from repro.isa.interpreter import StepOutcome
from repro.isa.latency import PAPER_LATENCIES, LatencyModel
from repro.isa.program import Program
from repro.frontend.branch_predictor import BranchPredictor, PerfectPredictor


@dataclass
class ProcessorConfig:
    """Parameters common to every processor model.

    Attributes:
        window_size: ``n``, the number of execution stations.
        fetch_width: instructions fetched per cycle (the paper assumes
            fetch width scales with issue width).
        latencies: functional-unit latencies (defaults match Figure 3).
        num_alus: shared-ALU pool size (Ultrascalar Memo 2 scheduler);
            ``None`` replicates an ALU per station, as the paper's
            layouts do.  Separates window size from issue width.
        store_forwarding: enable memory renaming — loads whose nearest
            preceding store (in the window) matches their address take
            the value directly, skipping the memory system (the paper's
            Section 7 bandwidth-reduction suggestion).
        self_timed: distance-dependent register forwarding — a result
            reaches a consumer after a delay proportional to the H-tree
            distance between the stations, instead of one global clock
            (the paper's Section 7 self-timed discussion).
        max_cycles: watchdog against livelock in broken configurations.
    """

    window_size: int = 8
    fetch_width: int = 4
    latencies: LatencyModel = PAPER_LATENCIES
    num_alus: int | None = None
    store_forwarding: bool = False
    self_timed: bool = False
    max_cycles: int = 1_000_000

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window size must be positive")
        if self.fetch_width < 1:
            raise ValueError("fetch width must be positive")
        if self.num_alus is not None and self.num_alus < 1:
            raise ValueError("num_alus must be positive when set")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")


class TimingRecord(NamedTuple):
    """Per-dynamic-instruction timing, the raw material of Figure 3."""

    seq: int
    static_index: int
    instruction: Instruction
    fetch_cycle: int
    issue_cycle: int
    complete_cycle: int
    commit_cycle: int

    @property
    def execute_span(self) -> tuple[int, int]:
        """(first busy cycle, last busy cycle + 1) — a Figure 3 bar."""
        return (self.issue_cycle, self.complete_cycle + 1)


#: one committed instruction as the engine logs it: ``(static_index, seq,
#: operand_values, result, address, taken, next_pc, fetch_cycle,
#: issue_cycle, complete_cycle, commit_cycle)``.  The first seven slots
#: line up with :class:`StepOutcome`'s fields except the second, where
#: the row keeps ``seq`` instead of the instruction, so
#: :func:`repro.verify.oracle.commit_stream` reads rows and outcomes alike.
CommitRow = tuple[
    int, int, tuple[int, ...], int | None, int | None, bool | None, int, int, int, int, int
]


@dataclass
class ProcessorResult:
    """What a processor run produces.

    The engine logs one :data:`CommitRow` per committed instruction in
    :attr:`commit_log` and builds no record objects while it runs.  The
    per-instruction views :attr:`committed` and :attr:`timings` are
    built from the log, and the program's :attr:`instructions`, the
    first time they are read, then cached; a caller that reads only
    :attr:`ipc`, :attr:`cycles` or the final state never pays for them.
    """

    cycles: int
    #: one row per committed instruction, in commit order
    commit_log: list[CommitRow]
    registers: list[int]
    memory: dict[int, int]
    halted: bool
    #: the program's instructions, by static index (the views' lookup)
    instructions: tuple[Instruction, ...] = ()
    #: dynamic instructions squashed on mispredicted paths
    squashed: int = 0
    #: mispredicted branches detected
    mispredictions: int = 0
    #: loads satisfied by store-forwarding (memory renaming) instead of
    #: the memory system
    forwarded_loads: int = 0
    #: aggregated telemetry counters (empty under the default NullTracer;
    #: see docs/observability.md for the counter vocabulary)
    stats: dict[str, int] = field(default_factory=dict)

    @cached_property
    def committed(self) -> list[StepOutcome]:
        """The committed instructions' outcomes, in commit order."""
        instructions = self.instructions
        return [
            StepOutcome(
                static_index, instructions[static_index], operands, result, address, taken, next_pc
            )
            for static_index, _, operands, result, address, taken, next_pc, *_ in self.commit_log
        ]

    @cached_property
    def timings(self) -> list[TimingRecord]:
        """The committed instructions' timing, in commit order."""
        instructions = self.instructions
        return [
            TimingRecord(
                seq, static_index, instructions[static_index], fetch, issue, complete, commit
            )
            for static_index, seq, *_, fetch, issue, complete, commit in self.commit_log
        ]

    @property
    def instructions_committed(self) -> int:
        """Committed dynamic instruction count."""
        return len(self.commit_log)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions_committed / self.cycles if self.cycles else 0.0

    def timing_diagram(self) -> str:
        """Render the committed instructions as a Figure 3 style bar chart,
        at most 60 characters of bar wide."""
        if not self.timings:
            return "(no instructions)"
        horizon = max(t.complete_cycle for t in self.timings) + 1
        scale = max(1, -(-horizon // 60))  # cycles per character
        lines = []
        for t in self.timings:
            start, end = t.execute_span
            bar = (
                " " * (start // scale)
                + "#" * max(1, (end - start + scale - 1) // scale)
            )
            lines.append(f"{str(t.instruction):24s} |{bar}")
        lines.append(f"{'':24s} +{'-' * (horizon // scale + 1)} ({horizon} cycles)")
        return "\n".join(lines)


def _default_predictor(program: Program, config: ProcessorConfig) -> BranchPredictor:
    """Perfect prediction by default: isolates scheduling behaviour.

    Code with no branch or jump needs no interpreter pre-pass.  The
    pre-pass stops at ``max_cycles * fetch_width`` steps, the most the
    engine can commit, so a runaway loop meets the engine's own
    ``max_cycles`` error.  Known quirk: it starts from zero registers
    and empty memory, not the run's initial state, so branches on that
    state can mispredict (e.g. ``beq r1, r0`` with ``r1 = 7``).
    """
    if not any(row.is_control for row in program.decoded):
        return PerfectPredictor({})
    from repro.isa.interpreter import StepLimitExceeded, run_program

    try:
        trace = run_program(program, max_steps=config.max_cycles * config.fetch_width).trace
    except StepLimitExceeded as limit:
        trace = limit.partial.trace
    return PerfectPredictor.from_trace(trace)
