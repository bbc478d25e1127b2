"""Differential execution: one program, every backend, one verdict.

:func:`run_differential` executes a program through all engine backends
— the Ultrascalar I ring, the Ultrascalar II batch, the hybrid and the
idealized dataflow baseline — and cross-checks each against the
architectural oracle (:mod:`repro.verify.oracle`) on final registers,
final memory, the committed instruction stream, and the halt flag.

It also enforces the paper's ILP-equivalence claim as an executable
invariant: for a wrap-around-free batch (window at least the dynamic
instruction count, so no design ever refills a station), all scalable
designs commit in the identical order and therefore take identical
cycle counts — "the three processors all implement identical
instruction sets, with identical scheduling policies".  For branch-free
programs the idealized dataflow schedule must match cycle-for-cycle as
well (Paper §2, Figure 3).

Telemetry is reused for triage: when a tracer session is active (e.g.
under ``--json``), per-design counters are collected so a divergence
report can show *where* the designs' executions differed, not just that
they did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import build_processor
from repro.baseline.dataflow import dataflow_schedule
from repro.isa.program import Program
from repro.telemetry.tracer import CountingTracer, diff_counters
from repro.ultrascalar import IdealMemory, ProcessorConfig
from repro.ultrascalar.processor import _default_predictor
from repro.verify.invariants import InvariantChecker, InvariantViolation
from repro.verify.oracle import OracleResult, commit_stream, run_oracle

#: backends run_differential knows how to drive
DESIGNS = ("us1", "us2", "hybrid", "dataflow")

#: designs that model the full engine (registers/memory/commit stream);
#: "dataflow" is a schedule-only reference
ENGINE_DESIGNS = ("us1", "us2", "hybrid")


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
    cycles: dict[str, int] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    invariant_checks: int = 0
    #: per-design telemetry counters, for divergence triage
    stats: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every design agreed with the reference."""
        return not self.divergences

    def triage(self) -> str:
        """Human-readable counter deltas between diverging designs."""
        if self.ok or len(self.stats) < 2:
            return ""
        names = sorted(self.stats)
        base = names[0]
        lines = []
        for other in names[1:]:
            for counter, (a, b) in diff_counters(self.stats[base], self.stats[other]).items():
                lines.append(f"{counter}: {base}={a} {other}={b}")
        return "\n".join(lines)


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


def _hybrid_cluster(window: int) -> int:
    """Largest power-of-two cluster <= max(1, window // 4) dividing window."""
    cluster = 1
    while cluster * 2 <= max(1, window // 4) and window % (cluster * 2) == 0:
        cluster *= 2
    return cluster


def run_differential(
    program: Program,
    *,
    initial_registers: list[int] | None = None,
    memory_image: dict[int, int] | None = None,
    window: int | None = None,
    designs: tuple[str, ...] | list[str] = DESIGNS,
    check_invariants: bool = True,
    collect_stats: bool = False,
    max_steps: int = 200_000,
) -> DiffReport:
    """Run *program* through *designs* and cross-check against the oracle.

    ``window=None`` sizes the window to the dynamic instruction count —
    the wrap-around-free configuration under which the ILP-equivalence
    invariant (identical commit order => identical cycle count across
    designs) is additionally enforced.

    Every engine design shares one default predictor, so the perfect
    predictor's interpreter pre-pass runs once per call; it is reset
    before each design, and so predicts for each exactly what a fresh
    one would.
    """
    unknown = sorted(set(designs) - set(DESIGNS))
    if unknown:
        raise ValueError(f"unknown design(s) {unknown}; expected {DESIGNS}")
    oracle = run_oracle(program, initial_registers, memory_image, max_steps=max_steps)
    dynamic = max(1, oracle.dynamic_length)
    wrap_free = window is None or window >= dynamic
    window = window if window is not None else dynamic
    config = ProcessorConfig(window_size=window, fetch_width=window, max_cycles=max_steps)
    report = DiffReport(window=window, designs=tuple(designs), oracle=oracle)
    checker = InvariantChecker() if check_invariants else None

    def diverge(design: str, field: str, detail: str) -> None:
        report.divergences.append(Divergence(design=design, field=field, detail=detail))

    regs = list(initial_registers or [])
    regs.extend([0] * (program.spec.num_registers - len(regs)))

    engines = [design for design in designs if design in ENGINE_DESIGNS]
    predictor = _default_predictor(program, config) if engines else None
    for design in engines:
        predictor.reset()
        memory = IdealMemory()
        memory.load_image(dict(memory_image or {}))
        tracer = CountingTracer() if collect_stats else None
        processor = build_processor(design, config, cluster_size=_hybrid_cluster(window))
        try:
            result = processor.run(
                program,
                memory=memory,
                predictor=predictor,
                initial_registers=list(regs),
                tracer=tracer,
                cycle_hook=checker,
            )
        except InvariantViolation as violation:
            diverge(design, "invariant", str(violation))
            continue
        report.cycles[design] = result.cycles
        if tracer is not None:
            report.stats[design] = tracer.snapshot()
        if result.registers != oracle.registers:
            diverge(design, "registers", _first_mismatch(result.registers, oracle.registers))
        if result.memory != oracle.memory:
            diverge(design, "memory", _memory_mismatch(result.memory, oracle.memory))
        commits = commit_stream(result.commit_log)
        if commits != oracle.commits:
            diverge(design, "commits", _first_mismatch(commits, oracle.commits))
        if result.halted != oracle.halted:
            diverge(design, "halted", f"got {result.halted}, want {oracle.halted}")

    if "dataflow" in designs:
        # same configuration tests/integration/test_ilp_equivalence.py
        # proves cycle-exact against us1 at window = dynamic length
        schedule = dataflow_schedule(oracle.trace)
        report.cycles["dataflow"] = schedule.cycles
        branch_free = not any(inst.is_control for inst in program)
        exact = branch_free and wrap_free and "us1" in report.cycles
        if exact and schedule.cycles != report.cycles["us1"]:
            detail = (
                f"dataflow {schedule.cycles} != us1 {report.cycles['us1']} "
                "on a branch-free wrap-free run"
            )
            diverge("dataflow", "cycles", detail)

    # The paper's ILP-equivalence invariant: with no wrap-around, every
    # scalable design commits the identical stream, so IPC is identical.
    if wrap_free:
        engine_cycles = {
            design: cycles
            for design, cycles in report.cycles.items()
            if design in ENGINE_DESIGNS
        }
        if len(set(engine_cycles.values())) > 1:
            rendered = ", ".join(f"{d}={c}" for d, c in sorted(engine_cycles.items()))
            detail = f"wrap-free cycle counts differ: {rendered}"
            diverge("/".join(sorted(engine_cycles)), "ilp_equivalence", detail)

    if checker is not None:
        report.invariant_checks = checker.checks
    return report
