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
from typing import NamedTuple

from repro.isa.interpreter import StepOutcome
from repro.isa.latency import PAPER_LATENCIES, LatencyModel


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
    """The whole schedule plus summary statistics."""

    entries: list[ScheduledInstruction]

    @property
    def cycles(self) -> int:
        """Total cycles: the last commit happens in cycle ``cycles - 1``."""
        return max((e.commit_cycle for e in self.entries), default=-1) + 1

    @property
    def ipc(self) -> float:
        """Dynamic instructions per cycle."""
        return len(self.entries) / self.cycles if self.cycles else 0.0

    def issue_times(self) -> list[int]:
        """Per-instruction issue cycles, in dynamic order."""
        return [e.issue_cycle for e in self.entries]


def dataflow_schedule(
    trace: list[StepOutcome],
    latencies: LatencyModel | None = None,
    fetch_width: int | None = None,
    window_size: int | None = None,
    cluster_size: int = 1,
) -> DataflowSchedule:
    """Compute the schedule of *trace*.

    Args:
        trace: dynamic instruction stream (golden interpreter output).
        latencies: functional-unit latencies (Figure 3 defaults).
        fetch_width: instructions entering per cycle (``None`` = no
            fetch limit: each enters once its station is free, all at
            cycle 0 without a window — the pure-dataflow limit).
        window_size: ``n`` stations (``None`` = unbounded).
        cluster_size: stations freed at a time, ``C``: 1 (Ultrascalar
            I), ``n`` (Ultrascalar II) or the hybrid's cluster size.
    """
    latencies = latencies or PAPER_LATENCIES
    entries: list[ScheduledInstruction] = []

    #: result-availability cycle per register (complete + 1)
    reg_available: dict[int, int] = {}
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
        for reg in inst.reads:
            issue = max(issue, reg_available.get(reg, 0))
        if inst.is_load:
            issue = max(issue, last_store_done + 1)
        if inst.is_store:
            issue = max(issue, last_mem_done + 1, last_branch_done + 1)

        # -- completion -------------------------------------------------
        latency = 1 if inst.is_memory else latencies.latency_of(inst.op)
        complete = issue + latency - 1
        commit = max(complete, prev_commit)

        entries.append(ScheduledInstruction(seq, step, fetch, issue, complete, commit))
        commits.append(commit)
        prev_commit = commit

        # -- update producer state --------------------------------------
        for reg in inst.writes:
            reg_available[reg] = complete + 1
        if inst.is_store:
            last_store_done = max(last_store_done, complete)
        if inst.is_memory:
            last_mem_done = max(last_mem_done, complete)
        if inst.is_control:
            last_branch_done = max(last_branch_done, complete)

    return DataflowSchedule(entries=entries)
