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
It is a state write that also drops the links to older stations; the
engine builds a fresh station for the slot's next instruction.

A station holds its instruction as a static index and that index's row
of the program's decoded table (:class:`repro.isa.program.Decoded`),
plus, for a conditional branch, the prediction fetch followed.  It also
holds its incoming dataflow links: for each register it reads, the
nearest preceding station writing that register (the station CSPP
routes the value from), and the younger stations waiting on its own
result.  The ring engine makes the links at fetch and follows them when
results are produced, instead of recomputing every view each cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.program import Decoded


class StationState(enum.Enum):
    """Lifecycle of an execution station's current instruction."""

    EMPTY = "empty"
    WAITING = "waiting"
    EXECUTING = "executing"
    MEMORY = "memory"
    DONE = "done"


@dataclass(eq=False, slots=True)
class Station:
    """One execution station's dynamic state.

    The fields set at fetch are the constructor's arguments, so the
    engine builds a station positionally (cheaper than keywords, once per
    dynamic instruction); the runtime fields after them start at their
    defaults.
    """

    index: int
    #: the held instruction's static index, -1 when empty
    static_index: int = -1
    #: the prediction fetch followed past a conditional branch
    predicted_taken: bool | None = None
    state: StationState = StationState.EMPTY
    #: dynamic sequence number of the held instruction (fetch order)
    seq: int = -1
    #: cycle the instruction entered this station
    fetch_cycle: int = -1
    #: the held instruction, decoded
    decoded: Decoded | None = None
    #: cycle execution began (arguments became ready), -1 until issue
    issue_cycle: int = field(default=-1, init=False)
    #: cycle the result became available to consumers (DONE), -1 until then
    complete_cycle: int = field(default=-1, init=False)
    #: resolved operand values (filled at issue)
    operands: tuple[int, ...] = field(default=(), init=False)
    #: result value (valid when DONE and the instruction writes a register)
    result: int | None = field(default=None, init=False)
    #: effective address for memory operations
    address: int | None = field(default=None, init=False)
    #: actual branch outcome (valid when DONE for control instructions)
    taken: bool | None = field(default=None, init=False)
    #: id of the outstanding memory request, if any
    memory_request_id: int | None = field(default=None, init=False)
    #: per source register, the nearest preceding station writing it at
    #: fetch; ``None`` (or a station since deallocated) means the
    #: committed register file supplies the value
    producers: tuple[Station | None, ...] = field(default=(), repr=False, init=False)
    #: younger stations whose operands wait on this station's result
    consumers: list[Station] = field(default_factory=list, repr=False, init=False)
    #: source operands whose producer has not finished yet
    pending: int = field(default=0, init=False)
    #: first cycle at which every source operand has reached this station
    ready_cycle: int = field(default=0, init=False)
    #: the writer this station displaced as its destination's nearest
    #: writer (restored if the station is squashed)
    prev_writer: Station | None = field(default=None, repr=False, init=False)
