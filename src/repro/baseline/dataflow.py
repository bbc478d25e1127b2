"""An idealized dataflow out-of-order machine over a dynamic trace.

Given the golden interpreter's dynamic trace, compute for every dynamic
instruction the earliest cycle it can issue under exactly the
Ultrascalar scheduling rules — register RAW dependencies with one-cycle
result forwarding, load-after-store and store-after-everything memory
ordering, optional fetch-bandwidth and window constraints — assuming
every instruction has its own functional unit (as the Ultrascalar
replicates its ALU per station) and branch prediction is perfect.

This is simultaneously:

* the paper's "traditional superscalar ... with enough functional
  units" reference for the Figure 3 timing diagram, and
* the oracle the integration tests compare the Ultrascalar I against,
  cycle for cycle.
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
    load_latency: int = 1,
    store_latency: int = 1,
    stop_fetch_at_taken: bool = True,
) -> DataflowSchedule:
    """Compute the idealized schedule of *trace*.

    Args:
        trace: dynamic instruction stream (golden interpreter output).
        latencies: functional-unit latencies (Figure 3 defaults).
        fetch_width: instructions entering per cycle (``None`` = all at
            cycle 0, the pure-dataflow limit).
        window_size: maximum in-flight instructions (``None`` =
            unbounded); instruction ``i`` cannot fetch until
            instruction ``i - window_size`` has committed.
        load_latency / store_latency: memory-system completion times
            (matching :class:`repro.ultrascalar.memsys.IdealMemory`).
        stop_fetch_at_taken: model conventional fetch's inability to
            cross a taken control transfer within one cycle.
    """
    latencies = latencies or PAPER_LATENCIES
    entries: list[ScheduledInstruction] = []

    #: result-availability cycle per register (complete + 1)
    reg_available: dict[int, int] = {}
    last_store_done = -1          # max completion among stores so far
    last_mem_done = -1            # max completion among loads + stores
    last_branch_done = -1         # max completion among control transfers
    prev_commit = -1
    commit_history: list[int] = []

    # fetch scheduling state
    fetch_cycle = 0
    fetched_this_cycle = 0
    fetch_broken = False  # a taken transfer ended the current fetch group

    for seq, step in enumerate(trace):
        inst = step.instruction

        # -- fetch constraint ------------------------------------------
        if fetch_width is None:
            fetch = 0
        else:
            if fetched_this_cycle >= fetch_width or fetch_broken:
                fetch_cycle += 1
                fetched_this_cycle = 0
                fetch_broken = False
            fetch = fetch_cycle
            fetched_this_cycle += 1
            if stop_fetch_at_taken and step.taken:
                fetch_broken = True
        if window_size is not None and seq >= window_size:
            # the station frees the cycle after instruction seq-window commits
            fetch = max(fetch, commit_history[seq - window_size] + 1)

        # -- issue constraints -----------------------------------------
        issue = fetch
        for reg in inst.reads:
            issue = max(issue, reg_available.get(reg, 0))
        if inst.is_load:
            issue = max(issue, last_store_done + 1)
        if inst.is_store:
            issue = max(issue, last_mem_done + 1, last_branch_done + 1)

        # -- completion -------------------------------------------------
        if inst.is_load:
            latency = load_latency
        elif inst.is_store:
            latency = store_latency
        else:
            latency = latencies.latency_of(inst.op)
        complete = issue + latency - 1
        commit = max(complete, prev_commit)

        entries.append(ScheduledInstruction(seq, step, fetch, issue, complete, commit))
        commit_history.append(commit)
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
