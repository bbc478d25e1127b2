"""Differential execution: one program, every design, one verdict.

:func:`run_differential` executes a program on the three engine designs
— the Ultrascalar I ring, the Ultrascalar II batch and the hybrid — and
cross-checks each against the architectural oracle
(:mod:`repro.verify.oracle`) on final registers, final memory, the
committed instruction stream, and the halt flag.

It also checks timing.  The paper says the three processors "implement
identical instruction sets, with identical scheduling policies", and
:func:`repro.baseline.dataflow.dataflow_schedule` states those policies
once, as a recurrence that differs between the designs only in how
many stations refill at a time.  On every run without a
misprediction (the recurrence assumes perfect prediction) each
committed instruction's fetch, issue, complete and commit cycles, and
the run's total cycles, must equal the recurrence's at that window and
that design's refill size.

For a wrap-around-free window (at least the dynamic instruction count,
so no design ever refills a station) all designs must also take
identical cycle counts.  This is the one cycle check that also covers
runs that mispredict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import PROCESSOR_KINDS, build_processor, cluster_for_window
from repro.baseline.dataflow import DataflowSchedule, dataflow_schedule
from repro.isa.program import Program
from repro.ultrascalar import IdealMemory, ProcessorConfig
from repro.ultrascalar.processor import _default_predictor
from repro.verify.invariants import InvariantChecker, InvariantViolation
from repro.verify.oracle import OracleResult, commit_stream, run_oracle

#: designs run_differential knows how to drive
DESIGNS = PROCESSOR_KINDS

#: the oracle's step cap and each engine's cycle cap
_MAX_STEPS = 200_000


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between a design and the reference."""

    design: str
    field: str
    detail: str


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    window: int
    designs: tuple[str, ...]
    oracle: OracleResult
    cycles: dict[str, int] = field(default_factory=dict, init=False)
    divergences: list[Divergence] = field(default_factory=list, init=False)
    invariant_checks: int = field(default=0, init=False)

    @property
    def ok(self) -> bool:
        """True when every design agreed with the reference."""
        return not self.divergences


def _first_mismatch(got: list, want: list) -> str:
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"first mismatch at dynamic index {index}: got {g}, want {w}"
    return f"length mismatch: got {len(got)}, want {len(want)}"


def _memory_mismatch(got: dict[int, int], want: dict[int, int]) -> str:
    addresses = sorted(set(got) | set(want))
    bad = [a for a in addresses if got.get(a, 0) != want.get(a, 0)]
    if not bad:
        return "address sets differ"
    first = bad[0]
    return (
        f"{len(bad)} address(es) differ, first at {first:#x}: "
        f"got {got.get(first, 0)}, want {want.get(first, 0)}"
    )


def _timing_mismatch(commit_log: list, cycles: int, schedule: DataflowSchedule) -> str:
    """How a run's timing departs from *schedule* ('' when it does not).

    Compares each committed row's (fetch, issue, complete, commit)
    cycles with the schedule's entry for the same dynamic instruction,
    then the total cycle count.
    """
    got = [row[7:] for row in commit_log]
    want = list(
        zip(
            schedule.fetch_cycles,
            schedule.issue_cycles,
            schedule.complete_cycles,
            schedule.commit_cycles,
        )
    )
    if got != want:
        return _first_mismatch(got, want)
    if cycles != schedule.cycles:
        return f"cycles: got {cycles}, want {schedule.cycles}"
    return ""


def run_differential(
    program: Program,
    *,
    initial_registers: list[int] | None = None,
    memory_image: dict[int, int] | None = None,
    window: int | None = None,
    designs: tuple[str, ...] | list[str] = DESIGNS,
    check_invariants: bool = True,
) -> DiffReport:
    """Run *program* through *designs* and cross-check against the oracle.

    ``window=None`` sizes the window to the dynamic instruction count —
    the wrap-around-free configuration under which the ILP-equivalence
    invariant (identical commit order => identical cycle count across
    designs) is additionally enforced.

    Every design shares one default predictor, so the perfect
    predictor's interpreter pre-pass runs once per call; it is reset
    before each design, and so predicts for each exactly what a fresh
    one would.  The timing recurrence is computed at most once per
    refill size, and once in all for a wrap-around-free window.
    """
    unknown = sorted(set(designs) - set(DESIGNS))
    if unknown:
        raise ValueError(f"unknown design(s) {unknown}; expected {DESIGNS}")
    oracle = run_oracle(program, initial_registers, memory_image, max_steps=_MAX_STEPS)
    dynamic = max(1, oracle.dynamic_length)
    wrap_free = window is None or window >= dynamic
    window = window if window is not None else dynamic
    config = ProcessorConfig(window_size=window, fetch_width=window, max_cycles=_MAX_STEPS)
    report = DiffReport(window=window, designs=tuple(designs), oracle=oracle)
    checker = InvariantChecker() if check_invariants else None
    schedules: dict[int, DataflowSchedule] = {}  # refill size -> recurrence

    def diverge(design: str, field: str, detail: str) -> None:
        report.divergences.append(Divergence(design=design, field=field, detail=detail))

    regs = list(initial_registers or [])
    regs.extend([0] * (program.spec.num_registers - len(regs)))

    predictor = _default_predictor(program, config) if designs else None
    for design in designs:
        predictor.reset()
        memory = IdealMemory()
        memory.load_image(dict(memory_image or {}))
        processor = build_processor(design, config, cluster_size=cluster_for_window(window))
        try:
            result = processor.run(
                program,
                memory=memory,
                predictor=predictor,
                initial_registers=list(regs),
                cycle_hook=checker,
            )
        except InvariantViolation as violation:
            diverge(design, "invariant", str(violation))
            continue
        report.cycles[design] = result.cycles
        if result.registers != oracle.registers:
            diverge(design, "registers", _first_mismatch(result.registers, oracle.registers))
        if result.memory != oracle.memory:
            diverge(design, "memory", _memory_mismatch(result.memory, oracle.memory))
        commits = commit_stream(result.commit_log)
        if commits != oracle.commits:
            diverge(design, "commits", _first_mismatch(commits, oracle.commits))
        if result.halted != oracle.halted:
            diverge(design, "halted", f"got {result.halted}, want {oracle.halted}")
        if result.mispredictions == 0:
            # the recurrence assumes perfect prediction
            refill = 1 if wrap_free else processor.refill_size
            if refill not in schedules:
                schedules[refill] = dataflow_schedule(
                    oracle.trace,
                    config.latencies,
                    fetch_width=window,
                    window_size=window,
                    cluster_size=refill,
                )
            mismatch = _timing_mismatch(result.commit_log, result.cycles, schedules[refill])
            if mismatch:
                diverge(design, "timing", mismatch)

    # The paper's ILP-equivalence invariant: with no wrap-around, every
    # design commits the identical stream, so IPC is identical.
    if wrap_free and len(set(report.cycles.values())) > 1:
        rendered = ", ".join(f"{d}={c}" for d, c in sorted(report.cycles.items()))
        detail = f"wrap-free cycle counts differ: {rendered}"
        diverge("/".join(sorted(report.cycles)), "ilp_equivalence", detail)

    if checker is not None:
        report.invariant_checks = checker.checks
    return report
