"""The execution station (the paper's Figure 2).

"An execution station is responsible for decoding and executing an
instruction given the data in its register file.  Each station includes
its own functional units (ALU), its own register file, instruction
decode logic, and control logic."

In the behavioural model a station carries one dynamic instruction and
its progress through the pipeline-less Ultrascalar lifecycle:

EMPTY -> WAITING (arguments not all ready)
      -> EXECUTING (functional-unit latency counting down)
      -> MEMORY (loads/stores waiting on the memory system)
      -> DONE (result computed, ready bit high)

Deallocation back to EMPTY happens when the station and every earlier
station are DONE — computed, like everything else, by a CSPP condition.

A station also holds its incoming dataflow links: for each register it
reads, the nearest preceding station writing that register (the station
CSPP routes the value from), and the younger stations waiting on its own
result.  The ring engine makes the links at fetch and follows them when
results are produced, instead of recomputing every view each cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.frontend.fetch import FetchedInstruction
from repro.isa.instruction import Instruction
from repro.isa.latency import LatencyModel
from repro.isa.opcodes import Opcode, OpClass


class StationState(enum.Enum):
    """Lifecycle of an execution station's current instruction."""

    EMPTY = "empty"
    WAITING = "waiting"
    EXECUTING = "executing"
    MEMORY = "memory"
    DONE = "done"


class DecodedInstruction(NamedTuple):
    """What a station's control logic reads of its instruction, decoded once."""

    op: Opcode
    imm: int | None
    target: int | None
    #: registers read, ``rs1`` then ``rs2``
    sources: tuple[int, ...]
    #: register written, if any
    dest: int | None
    #: functional-unit cycles
    latency: int
    is_load: bool
    is_store: bool
    is_memory: bool
    is_branch: bool
    is_control: bool
    is_halt: bool
    #: competes for a shared ALU (everything but NOP and HALT)
    uses_alu: bool

    @staticmethod
    def opcode_fields(inst: Instruction, latencies: LatencyModel) -> tuple:
        """The decoded fields that depend only on *inst*'s opcode."""
        return (
            latencies.latency_of(inst.op),
            inst.is_load,
            inst.is_store,
            inst.is_memory,
            inst.is_branch,
            inst.is_control,
            inst.is_halt,
            inst.op.op_class is not OpClass.SYSTEM,
        )

    @classmethod
    def of(cls, inst: Instruction, opcode_fields: tuple) -> DecodedInstruction:
        """Decode *inst*, given its :meth:`opcode_fields`."""
        return cls(inst.op, inst.imm, inst.target, inst.reads, inst.rd, *opcode_fields)


@dataclass(eq=False, slots=True)
class Station:
    """One execution station's dynamic state."""

    index: int
    fetched: FetchedInstruction | None = None
    state: StationState = StationState.EMPTY
    #: dynamic sequence number of the held instruction (fetch order)
    seq: int = -1
    #: cycle the instruction entered this station
    fetch_cycle: int = -1
    #: cycle execution began (arguments became ready), -1 until issue
    issue_cycle: int = -1
    #: cycle the result became available to consumers (DONE), -1 until then
    complete_cycle: int = -1
    #: resolved operand values (filled at issue)
    operands: tuple[int, ...] = ()
    #: result value (valid when DONE and the instruction writes a register)
    result: int | None = None
    #: effective address for memory operations
    address: int | None = None
    #: actual branch outcome (valid when DONE for control instructions)
    taken: bool | None = None
    #: id of the outstanding memory request, if any
    memory_request_id: int | None = None
    #: architecturally committed, but the station is not yet freed
    #: (hybrid clusters deallocate as a unit)
    committed: bool = False
    #: the held instruction, decoded
    decoded: DecodedInstruction | None = None
    #: per source register, the nearest preceding station writing it at
    #: fetch; ``None`` (or a station since deallocated) means the
    #: committed register file supplies the value
    producers: tuple[Station | None, ...] = field(default=(), repr=False)
    #: younger stations whose operands wait on this station's result
    consumers: list[Station] = field(default_factory=list, repr=False)
    #: source operands whose producer has not finished yet
    pending: int = 0
    #: first cycle at which every source operand has reached this station
    ready_cycle: int = 0
    #: the writer this station displaced as its destination's nearest
    #: writer (restored if the station is squashed)
    prev_writer: Station | None = field(default=None, repr=False)

    @property
    def occupied(self) -> bool:
        """True when the station holds an instruction."""
        return self.state is not StationState.EMPTY

    @property
    def done(self) -> bool:
        """True when the held instruction has finished executing."""
        return self.state is StationState.DONE

    def clear(self) -> None:
        """Return the station to EMPTY (deallocation or squash)."""
        self.fetched = None
        self.state = StationState.EMPTY
        self.seq = -1
        self.fetch_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.operands = ()
        self.result = None
        self.address = None
        self.taken = None
        self.memory_request_id = None
        self.committed = False
        self.decoded = None
        self.producers = ()
        self.consumers = []
        self.pending = 0
        self.ready_cycle = 0
        self.prev_writer = None

    def load(self, fetched: FetchedInstruction, seq: int, cycle: int) -> None:
        """Fill the station with a newly fetched instruction."""
        self.clear()
        self.fetched = fetched
        self.state = StationState.WAITING
        self.seq = seq
        self.fetch_cycle = cycle

    @property
    def writes_register(self) -> int | None:
        """The register this station's instruction writes, if any."""
        if self.fetched is None:
            return None
        writes = self.fetched.instruction.writes
        return writes[0] if writes else None
