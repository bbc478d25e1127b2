"""The :class:`Program` container: instructions plus label metadata.

A program also carries its decoded table, built on first use and kept
on the instance: one :class:`Decoded` row per static index, which the
fetch unit, the ring engine and the interpreter all read, and the
:attr:`Program.stops` array fetch slices plain runs with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, OpClass
from repro.isa.registers import MachineSpec


class Decoded(NamedTuple):
    """One static instruction as the engines read it; flags copy its opcode's."""

    op: Opcode
    imm: int | None
    target: int | None
    #: registers read, ``rs1`` then ``rs2``
    sources: tuple[int, ...]
    #: register written, if any
    dest: int | None
    op_class: OpClass
    is_load: bool
    is_store: bool
    is_memory: bool
    is_branch: bool
    is_control: bool
    is_halt: bool
    uses_alu: bool
    #: ``op.code``: the engines index ``PAPER_LATENCIES`` and the
    #: interpreter's ``SEMANTICS`` by it, which hashes no enum member
    code: int


@dataclass(frozen=True)
class Program:
    """An assembled program.

    Branch/jump targets are static instruction indices into
    :attr:`instructions`; ``labels`` maps label names to indices for
    debugging and disassembly.
    """

    instructions: tuple[Instruction, ...]
    labels: dict[str, int] = field(default_factory=dict)
    spec: MachineSpec = field(default_factory=MachineSpec)

    def __post_init__(self) -> None:
        for index, inst in enumerate(self.instructions):
            for reg in (*inst.reads, *inst.writes):
                try:
                    self.spec.validate_register(reg)
                except ValueError as exc:
                    raise ValueError(f"instruction {index} ({inst}): {exc}") from exc
            if inst.target is not None and not 0 <= inst.target <= len(self.instructions):
                raise ValueError(
                    f"instruction {index} ({inst}): target {inst.target} out of range"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def decoded(self) -> tuple[Decoded, ...]:
        """One :class:`Decoded` row per static index."""
        return self._table()[0]

    @property
    def stops(self) -> list[int]:
        """Per static index ``i``, the first index ``>= i`` holding a control
        transfer or HALT (``len(self)`` if none): ``i`` up to it is a plain run."""
        return self._table()[1]

    def _table(self) -> tuple[tuple[Decoded, ...], list[int]]:
        table = self.__dict__.get("_decoded_table")
        if table is None:
            table = self._decode()
            object.__setattr__(self, "_decoded_table", table)
        return table

    def _decode(self) -> tuple[tuple[Decoded, ...], list[int]]:
        rows = []
        for inst in self.instructions:
            op = inst.op
            rows.append(
                Decoded(
                    op, inst.imm, inst.target, inst.reads, inst.rd, op.op_class, op.is_load,
                    op.is_store, op.is_memory, op.is_branch, op.is_control, op.is_halt,
                    op.uses_alu, op.code,
                )
            )
        stops = [len(rows)] * len(rows)
        stop = len(rows)
        for index in range(len(rows) - 1, -1, -1):
            if rows[index].is_control or rows[index].is_halt:
                stop = index
            stops[index] = stop
        return tuple(rows), stops

    def disassemble(self) -> str:
        """Render the program as assembly text with label annotations."""
        index_to_labels: dict[int, list[str]] = {}
        for name, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(name)
        lines = []
        for index, inst in enumerate(self.instructions):
            for name in sorted(index_to_labels.get(index, [])):
                lines.append(f"{name}:")
            lines.append(f"  {inst}")
        for name in sorted(index_to_labels.get(len(self.instructions), [])):
            lines.append(f"{name}:")
        return "\n".join(lines)

    @staticmethod
    def from_instructions(
        instructions: Sequence[Instruction], spec: MachineSpec | None = None
    ) -> "Program":
        """Build a :class:`Program` from a plain instruction sequence."""
        return Program(tuple(instructions), {}, spec or MachineSpec())
