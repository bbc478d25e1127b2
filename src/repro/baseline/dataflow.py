"""The scheduling rules of all three designs, as one recurrence.

The paper: "The three processors all implement identical instruction
sets, with identical scheduling policies."  :func:`dataflow_schedule`
states those policies once over the golden interpreter's dynamic
trace, assuming perfect prediction and an ALU per station: fetch
groups of ``fetch_width`` that end at a taken transfer, one-cycle
result forwarding, loads after older stores, stores after older memory
operations and control transfers, one-cycle memory (as
:class:`repro.ultrascalar.memsys.IdealMemory`) and in-order commit.
The designs differ only in which commit frees a station: instruction
``seq`` takes the station of ``seq - n``, free the cycle after the
last instruction of that one's cluster commits, for clusters of 1
(Ultrascalar I), ``C`` (hybrid) or ``n`` (Ultrascalar II).

With a window it is the ring engine's exact timing, which ``repro
verify`` checks on every mispredict-free run.  Unbounded it is the
paper's "traditional superscalar ... with enough functional units",
the reference for Figure 3 and E10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from repro.isa.interpreter import StepOutcome
from repro.isa.latency import PAPER_LATENCIES


class ScheduledInstruction(NamedTuple):
    """Schedule entry for one dynamic instruction."""

    seq: int
    step: StepOutcome
    fetch_cycle: int
    issue_cycle: int
    complete_cycle: int
    commit_cycle: int


@dataclass
class DataflowSchedule:
    """The whole schedule plus summary statistics.

    The recurrence builds no record per instruction: it keeps each
    dynamic instruction's fetch, issue, complete and commit cycles as
    four int columns, indexed by ``seq``.  :attr:`entries` is built
    from the columns and the trace the first time it is read, then
    cached; a caller that reads only :attr:`cycles`, :attr:`ipc` or the
    columns never pays for it.
    """

    #: the scheduled dynamic trace, by ``seq``
    trace: list[StepOutcome]
    fetch_cycles: list[int]
    issue_cycles: list[int]
    complete_cycles: list[int]
    commit_cycles: list[int]

    @cached_property
    def entries(self) -> list[ScheduledInstruction]:
        """One record per dynamic instruction, in ``seq`` order."""
        return list(
            map(
                ScheduledInstruction,
                range(len(self.trace)),
                self.trace,
                self.fetch_cycles,
                self.issue_cycles,
                self.complete_cycles,
                self.commit_cycles,
            )
        )

    @property
    def cycles(self) -> int:
        """Total cycles: the last commit happens in cycle ``cycles - 1``.

        Commit is in order, so the last instruction commits last.
        """
        commits = self.commit_cycles
        return commits[-1] + 1 if commits else 0

    @property
    def ipc(self) -> float:
        """Dynamic instructions per cycle."""
        cycles = self.cycles
        return len(self.commit_cycles) / cycles if cycles else 0.0


def dataflow_schedule(
    trace: list[StepOutcome],
    fetch_width: int | None = None,
    window_size: int | None = None,
    cluster_size: int = 1,
) -> DataflowSchedule:
    """Compute the schedule of *trace*.

    Args:
        trace: dynamic instruction stream (golden interpreter output).
        fetch_width: instructions entering per cycle (``None`` = no
            fetch limit: each enters once its station is free, all at
            cycle 0 without a window — the pure-dataflow limit).
        window_size: ``n`` stations (``None`` = unbounded).
        cluster_size: stations freed at a time, ``C``: 1 (Ultrascalar
            I), ``n`` (Ultrascalar II) or the hybrid's cluster size.
    """
    by_code = PAPER_LATENCIES
    fetches: list[int] = []
    issues: list[int] = []
    completes: list[int] = []

    #: result-availability cycle per register (complete + 1)
    reg_available: dict[int, int] = {}
    available = reg_available.get
    last_store_done = -1          # max completion among stores so far
    last_mem_done = -1            # max completion among loads + stores
    last_branch_done = -1         # max completion among control transfers
    prev_commit = -1
    commits: list[int] = []

    # fetch scheduling state
    fetch_cycle = 0
    fetched_this_cycle = 0
    fetch_broken = False  # a taken transfer ended the current fetch group

    for seq, step in enumerate(trace):
        inst = step.instruction
        op = inst.op

        # -- fetch constraint ------------------------------------------
        # the station frees the cycle after the last instruction of the
        # cluster that held instruction seq - n commits
        free = 0
        if window_size is not None and seq >= window_size:
            last = seq - window_size
            last += cluster_size - 1 - last % cluster_size
            free = commits[last] + 1
        if fetch_width is None:
            fetch = free
        else:
            if fetched_this_cycle >= fetch_width or fetch_broken:
                fetch_cycle += 1
                fetched_this_cycle = 0
            if free > fetch_cycle:  # the freed station starts a fresh group
                fetch_cycle = free
                fetched_this_cycle = 0
            fetch = fetch_cycle
            fetched_this_cycle += 1
            fetch_broken = bool(step.taken)

        # -- issue constraints -----------------------------------------
        issue = fetch
        if inst.rs1 is not None:
            ready = available(inst.rs1, 0)
            if ready > issue:
                issue = ready
        if inst.rs2 is not None:
            ready = available(inst.rs2, 0)
            if ready > issue:
                issue = ready
        if op.is_load:
            if last_store_done >= issue:
                issue = last_store_done + 1
        elif op.is_store:
            if last_mem_done >= issue:
                issue = last_mem_done + 1
            if last_branch_done >= issue:
                issue = last_branch_done + 1

        # -- completion (memory takes one cycle, as IdealMemory) ---------
        is_memory = op.is_memory
        complete = issue if is_memory else issue + by_code[op.code] - 1
        commit = complete if complete > prev_commit else prev_commit

        fetches.append(fetch)
        issues.append(issue)
        completes.append(complete)
        commits.append(commit)
        prev_commit = commit

        # -- update producer state --------------------------------------
        if inst.rd is not None:
            reg_available[inst.rd] = complete + 1
        if is_memory:
            if complete > last_mem_done:
                last_mem_done = complete
            if op.is_store and complete > last_store_done:
                last_store_done = complete
        elif op.is_control and complete > last_branch_done:
            last_branch_done = complete

    return DataflowSchedule(trace, fetches, issues, completes, commits)
