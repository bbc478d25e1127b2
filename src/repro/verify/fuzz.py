"""Property fuzzing: seeded random programs, shrinking, reproducers.

:func:`generate_case` builds a random-but-deterministic program for a
seed: ALU chains engineered to produce RAW/WAR/WAW hazards over a small
register pool, loads and stores into a deliberately aliasing address
window, and forward-only branches and jumps (forward-only control flow
guarantees termination, so every generated program is a valid oracle
input).  Registers r28–r31 are reserved memory bases — never written —
so every effective address stays word-aligned by construction.

:func:`run_case` feeds a case through :func:`repro.verify.diff.
run_differential` at several window sizes (always including the
wrap-around-free size, where the ILP-equivalence invariant applies).
When a case fails, :func:`shrink_case` reduces it ddmin-style — drop
contiguous instruction chunks, remap branch targets, keep the removal
iff the failure persists — and :func:`write_reproducer` records the
minimal program as a ``repro-failure/1`` JSON file that
:func:`load_reproducer` (and ``python -m repro verify --repro``) can
replay.

:func:`shard_report` is the pool entry point: one seed's whole
generate→diff→shrink→record cycle, returning a JSON summary string so
shards fan out across worker processes via :mod:`repro.runner.pool`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.util.artifact import check_envelope, envelope, read_json, write_json
from repro.util.rng import derive_seed
from repro.verify.diff import DESIGNS, DiffReport, run_differential

#: schema tag for failing-case reproducer files
FAILURE_SCHEMA = "repro-failure/1"

#: registers the generator never writes; they hold memory base addresses
#: so every load/store address is word-aligned by construction
BASE_REGISTERS = (28, 29, 30, 31)

#: word-aligned byte offsets the generator draws from — deliberately few,
#: so loads and stores alias each other often
ALIAS_OFFSETS = tuple(range(0, 64, 4))

#: base addresses for the reserved registers; regions overlap so
#: different bases can still alias
BASE_ADDRESSES = (4096, 4128, 4160, 4112)

#: smallest and largest static size of a shard's random-grammar cases
MIN_CASE_SIZE = 6
MAX_CASE_SIZE = 48

#: how many shrunk candidates :func:`shrink_case` tests before it stops
MAX_SHRINK_ATTEMPTS = 400

_ALU3 = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SLL,
    Opcode.SRL,
    Opcode.SRA,
    Opcode.SLT,
    Opcode.SLTU,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.REM,
)
_ALU_IMM = (
    Opcode.ADDI,
    Opcode.ANDI,
    Opcode.ORI,
    Opcode.XORI,
    Opcode.SLTI,
    Opcode.MULI,
)
_SHIFT_IMM = (Opcode.SLLI, Opcode.SRLI)
_ALU2 = (Opcode.MOV, Opcode.NOT, Opcode.NEG)
_BRANCHES = (
    Opcode.BEQ,
    Opcode.BNE,
    Opcode.BLT,
    Opcode.BGE,
    Opcode.BLTU,
    Opcode.BGEU,
)

#: (kind, weight) mix for the generated instruction stream
_KIND_WEIGHTS = (
    ("alu3", 30),
    ("alu_imm", 16),
    ("shift_imm", 6),
    ("alu2", 8),
    ("li", 6),
    ("load", 12),
    ("store", 12),
    ("branch", 8),
    ("jump", 2),
)


@dataclass(frozen=True)
class FuzzCase:
    """One generated differential-test input."""

    seed: int
    program: Program
    initial_registers: list[int]
    memory_image: dict[int, int]

    @property
    def size(self) -> int:
        """Static instruction count (including the final HALT)."""
        return len(self.program)


def generate_case(seed: int, size: int) -> FuzzCase:
    """Deterministically generate one :class:`FuzzCase`.

    *size* is the number of body instructions; a HALT is appended, and
    control transfers only ever jump forward (possibly to the HALT), so
    the program always terminates.
    """
    rng = random.Random(derive_seed("verify.fuzz", seed, size))
    pool = 12  # writable registers r0..r11: small, to force hazards
    kinds, weights = zip(*_KIND_WEIGHTS)
    body: list[Instruction] = []
    for index in range(size):
        kind = rng.choices(kinds, weights=weights)[0]
        rd = rng.randrange(pool)
        rs1 = rng.randrange(pool)
        rs2 = rng.randrange(pool)
        base = rng.choice(BASE_REGISTERS)
        offset = rng.choice(ALIAS_OFFSETS)
        if kind == "alu3":
            body.append(Instruction(rng.choice(_ALU3), rd=rd, rs1=rs1, rs2=rs2))
        elif kind == "alu_imm":
            imm = rng.randrange(-64, 65)
            body.append(Instruction(rng.choice(_ALU_IMM), rd=rd, rs1=rs1, imm=imm))
        elif kind == "shift_imm":
            body.append(Instruction(rng.choice(_SHIFT_IMM), rd=rd, rs1=rs1, imm=rng.randrange(32)))
        elif kind == "alu2":
            body.append(Instruction(rng.choice(_ALU2), rd=rd, rs1=rs1))
        elif kind == "li":
            body.append(Instruction(Opcode.LI, rd=rd, imm=rng.randrange(-1024, 1025)))
        elif kind == "load":
            body.append(Instruction(Opcode.LW, rd=rd, rs1=base, imm=offset))
        elif kind == "store":
            body.append(Instruction(Opcode.SW, rs1=base, rs2=rs2, imm=offset))
        elif kind == "branch":
            target = rng.randrange(index + 1, size + 1)  # forward only
            body.append(Instruction(rng.choice(_BRANCHES), rs1=rs1, rs2=rs2, target=target))
        else:  # jump
            target = rng.randrange(index + 1, size + 1)
            body.append(Instruction(Opcode.J, target=target))
    body.append(Instruction(Opcode.HALT))
    program = Program.from_instructions(body)

    registers = [0] * program.spec.num_registers
    for reg in range(pool):
        registers[reg] = rng.randrange(-128, 129) & 0xFFFFFFFF
    for reg, address in zip(BASE_REGISTERS, BASE_ADDRESSES):
        registers[reg] = address
    image = {}
    for address in range(min(BASE_ADDRESSES), max(BASE_ADDRESSES) + max(ALIAS_OFFSETS) + 4, 4):
        image[address] = rng.getrandbits(32)
    return FuzzCase(seed=seed, program=program, initial_registers=registers, memory_image=image)


def corpus_cases(seed: int) -> list[FuzzCase]:
    """Structured cases drawn from :mod:`repro.workloads.generators`.

    The random grammar above is dense in hazards but rarely produces
    the idiomatic shapes the paper's experiments use (loops, reductions,
    pointer chases), so each shard also differentially tests a few
    generator workloads at shard-seeded parameters.
    """
    from repro.workloads import generators

    rng = random.Random(derive_seed("verify.fuzz.corpus", seed))
    density = rng.choice((0.25, 0.5, 0.75))
    workloads = [
        generators.random_ilp(rng.randrange(8, 33), density, seed=derive_seed(seed, "ilp")),
        generators.daxpy_loop(rng.randrange(2, 6)),
        generators.jump_chain(rng.randrange(2, 6)),
        generators.store_load_pairs(rng.randrange(2, 9)),
        generators.pointer_chase(rng.randrange(2, 6)),
    ]
    cases = []
    for index, workload in enumerate(workloads):
        case = FuzzCase(
            seed=derive_seed(seed, "corpus", index),
            program=workload.program,
            initial_registers=workload.registers_for(),
            memory_image=dict(workload.memory_image),
        )
        cases.append(case)
    return cases


# ----------------------------------------------------------------------
# running and shrinking


@dataclass
class CaseFailure:
    """One failing (case, window) combination."""

    case: FuzzCase
    window: int | None
    report: DiffReport | None
    #: set instead of *report* when a backend raised
    error: str | None = None

    def describe(self) -> list[dict[str, str]]:
        """The divergences as plain dicts (reproducer/report payload)."""
        if self.error is not None:
            return [{"design": "?", "field": "exception", "detail": self.error}]
        return [
            {"design": d.design, "field": d.field, "detail": d.detail}
            for d in self.report.divergences
        ]


def _windows_for(case: FuzzCase, sizes: tuple[int, ...]) -> list[int | None]:
    """The window sizes to test: the requested ones plus wrap-free."""
    windows: list[int | None] = [None]  # wrap-free (window = dynamic length)
    windows.extend(w for w in sizes if w >= 1)
    return windows


def run_case(
    case: FuzzCase,
    *,
    sizes: tuple[int, ...] = (4, 16),
    designs: tuple[str, ...] = DESIGNS,
    check_invariants: bool = True,
) -> CaseFailure | None:
    """Differentially test *case*; return its first failure, if any."""
    for window in _windows_for(case, sizes):
        try:
            report = run_differential(
                case.program,
                initial_registers=list(case.initial_registers),
                memory_image=dict(case.memory_image),
                window=window,
                designs=designs,
                check_invariants=check_invariants,
            )
        except Exception as exc:  # engine crash is a finding, not an abort
            return CaseFailure(case=case, window=window, report=None, error=repr(exc))
        if not report.ok:
            return CaseFailure(case=case, window=window, report=report)
    return None


def _remove_chunk(program: Program, start: int, stop: int) -> Program | None:
    """Drop instructions ``[start, stop)``, remapping branch targets.

    Targets inside the removed chunk clamp to *start*; targets beyond it
    shift down.  Returns ``None`` when the result would be degenerate
    (no instructions, or the mandatory trailing HALT removed).
    """
    kept: list[Instruction] = []
    removed = stop - start
    for index, inst in enumerate(program.instructions):
        if start <= index < stop:
            continue
        if inst.target is not None:
            target = inst.target
            if target >= stop:
                target -= removed
            elif target >= start:
                target = start
            inst = Instruction(
                inst.op, rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2, imm=inst.imm, target=target
            )
        kept.append(inst)
    if not kept or not kept[-1].is_halt:
        return None
    try:
        return Program.from_instructions(kept, spec=program.spec)
    except ValueError:
        return None


def shrink_case(
    failure: CaseFailure,
    *,
    sizes: tuple[int, ...] = (4, 16),
    designs: tuple[str, ...] = DESIGNS,
    check_invariants: bool = True,
) -> FuzzCase:
    """ddmin-style reduction: the smallest case that still fails.

    Greedily removes contiguous instruction chunks (halving chunk sizes
    down to single instructions, restarting after any success) while the
    failure — any failure, not necessarily the original divergence —
    persists under the same test parameters, for at most
    :data:`MAX_SHRINK_ATTEMPTS` candidates.
    """
    case = failure.case

    def still_fails(candidate: FuzzCase) -> bool:
        return (
            run_case(
                candidate,
                sizes=sizes,
                designs=designs,
                check_invariants=check_invariants,
            )
            is not None
        )

    attempts = 0
    chunk = max(1, (len(case.program) - 1) // 2)
    while chunk >= 1 and attempts < MAX_SHRINK_ATTEMPTS:
        shrunk_this_pass = False
        start = 0
        while start < len(case.program) - 1 and attempts < MAX_SHRINK_ATTEMPTS:
            stop = min(start + chunk, len(case.program) - 1)
            program = _remove_chunk(case.program, start, stop)
            if program is not None:
                candidate = FuzzCase(
                    seed=case.seed,
                    program=program,
                    initial_registers=case.initial_registers,
                    memory_image=case.memory_image,
                )
                attempts += 1
                if still_fails(candidate):
                    case = candidate
                    shrunk_this_pass = True
                    continue  # retry same start at the new, shorter program
            start += chunk
        if not shrunk_this_pass:
            chunk //= 2
    return case


# ----------------------------------------------------------------------
# reproducers


def reproducer_dict(failure: CaseFailure, shrunk: FuzzCase | None = None) -> dict:
    """The ``repro-failure/1`` payload for a failing case."""
    case = failure.case
    payload = envelope(
        FAILURE_SCHEMA,
        seed=case.seed,
        window=failure.window,
        divergences=failure.describe(),
        program=case.program.disassemble(),
        initial_registers=list(case.initial_registers),
        memory_image={str(k): v for k, v in sorted(case.memory_image.items())},
    )
    if shrunk is not None and len(shrunk.program) < len(case.program):
        payload["shrunk_program"] = shrunk.program.disassemble()
        payload["shrunk_size"] = len(shrunk.program)
    return payload


def write_reproducer(
    directory: str | Path, failure: CaseFailure, shrunk: FuzzCase | None = None
) -> Path:
    """Write a reproducer JSON under *directory*; returns its path."""
    path = Path(directory) / f"seed{failure.case.seed:08d}.json"
    return write_json(path, reproducer_dict(failure, shrunk), sort_keys=True)


def validate_reproducer(payload: Any) -> list[str]:
    """Return problems with a ``repro-failure/1`` reproducer payload.

    ``version`` is not required: reproducers written before it joined
    the envelope still load.
    """
    return check_envelope(
        payload, FAILURE_SCHEMA, ("seed", "program", "initial_registers", "memory_image")
    )


def load_reproducer(path: str | Path) -> FuzzCase:
    """Rebuild a :class:`FuzzCase` from a reproducer file.

    Prefers the shrunk program when the file records one.  Raises
    ``ValueError`` for a malformed file and ``OSError`` for an
    unreadable one.
    """
    payload = read_json(path, validate_reproducer)
    source = payload.get("shrunk_program") or payload["program"]
    return FuzzCase(
        seed=int(payload["seed"]),
        program=assemble(source),
        initial_registers=[int(v) for v in payload["initial_registers"]],
        memory_image={int(k): int(v) for k, v in payload["memory_image"].items()},
    )


# ----------------------------------------------------------------------
# pool entry point


@dataclass
class ShardOutcome:
    """Parsed result of one fuzz shard (see :func:`shard_report`)."""

    seed: int
    cases: int
    instructions: int
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the shard found no divergences."""
        return not self.failures


def shard_report(
    *,
    seed: int,
    budget: int = 200,
    sizes: tuple[int, ...] | list[int] = (4, 16),
    designs: tuple[str, ...] | list[str] = DESIGNS,
    minimize: bool = True,
    check_invariants: bool = True,
    failures_dir: str | None = None,
) -> str:
    """One fuzz shard: generate and test cases until *budget* is spent.

    Each shard first replays the :func:`corpus_cases` workloads, then
    draws random-grammar cases sized from ``[MIN_CASE_SIZE, MAX_CASE_SIZE]`` until
    *budget* (counted in static instructions) is spent.  Returns a JSON
    summary string (the :mod:`repro.runner.pool` contract).  Failing
    cases are shrunk (when *minimize*) and written to *failures_dir*.
    """
    sizes = tuple(int(s) for s in sizes)
    designs = tuple(designs)
    rng = random.Random(derive_seed("verify.fuzz.shard", seed))
    spent = 0
    case_index = 0
    failures: list[dict] = []
    pending = corpus_cases(seed)  # structured workloads first, then the random grammar
    while pending or spent < budget:
        if pending:
            case = pending.pop(0)
            spent += case.size
        else:
            size = min(rng.randrange(MIN_CASE_SIZE, MAX_CASE_SIZE + 1), budget - spent)
            size = max(size, 1)
            case = generate_case(derive_seed(seed, case_index), size)
            spent += size
        case_index += 1
        failure = run_case(case, sizes=sizes, designs=designs, check_invariants=check_invariants)
        if failure is None:
            continue
        shrunk = (
            shrink_case(
                failure,
                sizes=sizes,
                designs=designs,
                check_invariants=check_invariants,
            )
            if minimize
            else None
        )
        entry = reproducer_dict(failure, shrunk)
        if failures_dir is not None:
            entry["reproducer"] = str(write_reproducer(failures_dir, failure, shrunk))
        failures.append(entry)
    return json.dumps(
        {
            "schema": "repro-fuzz-shard/1",
            "seed": seed,
            "cases": case_index,
            "instructions": spent,
            "failures": failures,
        },
        sort_keys=True,
    )


def parse_shard_report(text: str) -> ShardOutcome:
    """Decode a :func:`shard_report` JSON string."""
    payload = json.loads(text)
    return ShardOutcome(
        seed=int(payload["seed"]),
        cases=int(payload["cases"]),
        instructions=int(payload["instructions"]),
        failures=list(payload["failures"]),
    )
