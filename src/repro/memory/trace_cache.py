"""An instruction trace cache (Rotenberg, Bennett & Smith, MICRO 1996).

The paper proposes a trace cache behind a fat-tree so that instruction
fetch can supply the wide Ultrascalar window: a conventional
instruction cache delivers at most one fetch block per cycle and stops
at the first taken branch, while a trace cache stores *dynamic*
instruction sequences — identified by a start PC and the outcomes of
the branches inside — and can deliver a whole multi-branch trace in one
cycle.

This model stores traces of up to ``trace_length`` instructions with up
to ``max_branches`` conditional branches, in a direct-mapped structure
indexed by start PC with the branch-outcome vector as part of the tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceKey:
    """Identity of a trace: start PC + outcomes of its internal branches."""

    start_pc: int
    outcomes: tuple[bool, ...]


@dataclass
class TraceCacheStats:
    """Hit/miss counters."""

    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    fills: int = field(default=0, init=False)


@dataclass
class TraceCache:
    """Direct-mapped trace cache.

    Args:
        num_sets: direct-mapped sets (indexed by start PC).
        trace_length: maximum instructions per trace line.
        max_branches: maximum conditional branches embedded in a trace.
    """

    num_sets: int = 256
    trace_length: int = 16
    max_branches: int = 3
    stats: TraceCacheStats = field(default_factory=TraceCacheStats, init=False)
    _lines: dict[int, tuple[TraceKey, tuple[int, ...]]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.num_sets < 1:
            raise ValueError("need at least one set")
        if self.trace_length < 1:
            raise ValueError("trace length must be positive")
        if self.max_branches < 0:
            raise ValueError("max_branches must be non-negative")

    def _set_of(self, pc: int) -> int:
        return pc % self.num_sets

    def lookup(self, start_pc: int, predicted_outcomes: tuple[bool, ...]) -> tuple[int, ...] | None:
        """Return the stored trace matching the prediction, or ``None``.

        The outcome vector must match the stored trace's outcomes
        *prefix-wise*: a stored trace with fewer branches than predicted
        still hits (the fetch unit simply delivers fewer instructions).
        """
        entry = self._lines.get(self._set_of(start_pc))
        if entry is None:
            self.stats.misses += 1
            return None
        key, trace = entry
        if key.start_pc != start_pc:
            self.stats.misses += 1
            return None
        stored = key.outcomes
        if stored != tuple(predicted_outcomes[: len(stored)]):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return trace

    def fill(self, start_pc: int, outcomes: tuple[bool, ...], trace: tuple[int, ...]) -> None:
        """Insert a trace built by the fill unit after a miss."""
        if len(trace) > self.trace_length:
            raise ValueError(
                f"trace of {len(trace)} instructions exceeds trace_length={self.trace_length}"
            )
        if len(outcomes) > self.max_branches:
            raise ValueError(
                f"trace with {len(outcomes)} branches exceeds max_branches={self.max_branches}"
            )
        self.stats.fills += 1
        self._lines[self._set_of(start_pc)] = (TraceKey(start_pc, tuple(outcomes)), tuple(trace))
