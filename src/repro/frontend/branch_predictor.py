"""Branch predictors.

The paper leaves the predictor unspecified (it affects IPC, not the
VLSI complexity results); we provide the standard menagerie so the
processor experiments can sweep prediction quality: static policies,
a bimodal (2-bit counter) table, gshare, and a perfect oracle used to
isolate scheduling behaviour in the ILP-equivalence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction


class BranchPredictor:
    """Interface: predict a conditional branch, then learn its outcome."""

    def predict(self, pc: int, instruction: Instruction) -> bool:
        """Predicted taken/not-taken for the branch at *pc*."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome of the branch at *pc*."""

    def reset(self) -> None:
        """Forget all learned state."""


class AlwaysTaken(BranchPredictor):
    """Statically predict taken."""

    def predict(self, pc: int, instruction: Instruction) -> bool:
        return True


class AlwaysNotTaken(BranchPredictor):
    """Statically predict not taken."""

    def predict(self, pc: int, instruction: Instruction) -> bool:
        return False


class BackwardTaken(BranchPredictor):
    """BTFN: backward branches (loops) taken, forward branches not taken."""

    def predict(self, pc: int, instruction: Instruction) -> bool:
        return instruction.target is not None and instruction.target <= pc


@dataclass
class BimodalPredictor(BranchPredictor):
    """A table of 2-bit saturating counters indexed by PC."""

    size: int = 512
    counters: list[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("predictor table must be non-empty")
        self.counters = [1] * self.size  # weakly not-taken

    def _index(self, pc: int) -> int:
        return pc % self.size

    def predict(self, pc: int, instruction: Instruction) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        if taken:
            self.counters[index] = min(3, self.counters[index] + 1)
        else:
            self.counters[index] = max(0, self.counters[index] - 1)

    def reset(self) -> None:
        self.counters = [1] * self.size


#: gshare's global history: the last 8 branch outcomes
_HISTORY_MASK = (1 << 8) - 1


@dataclass
class GSharePredictor(BranchPredictor):
    """gshare: global history XORed into the counter index."""

    size: int = 1024
    counters: list[int] = field(init=False)
    history: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.size < 1 or self.size & (self.size - 1):
            raise ValueError("gshare table size must be a power of two")
        self.counters = [1] * self.size

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) % self.size

    def predict(self, pc: int, instruction: Instruction) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        if taken:
            self.counters[index] = min(3, self.counters[index] + 1)
        else:
            self.counters[index] = max(0, self.counters[index] - 1)
        self.history = ((self.history << 1) | int(taken)) & _HISTORY_MASK

    def reset(self) -> None:
        self.counters = [1] * self.size
        self.history = 0


class PerfectPredictor(BranchPredictor):
    """An oracle that replays a known dynamic outcome sequence per PC.

    Used by the ILP-equivalence experiments to remove prediction noise:
    construct it from a golden-interpreter trace, then each branch's
    successive dynamic executions are predicted exactly.

    Known defect, kept because perfbench's pinned ``mem`` cycles depend
    on it: the per-PC cursor advances at commit (:meth:`update`), so two
    in-flight instances of one branch both get the older one's outcome.
    ``matmul(4)`` at n=128 mispredicts 30 times even from a correct
    trace.  This is separate from the default predictor's zero state.
    """

    def __init__(self, outcomes_by_pc: dict[int, list[bool]]):
        self._outcomes = {pc: list(outcomes) for pc, outcomes in outcomes_by_pc.items()}
        self._cursor: dict[int, int] = {pc: 0 for pc in self._outcomes}

    @staticmethod
    def from_trace(trace) -> "PerfectPredictor":
        """Build from a golden-interpreter trace (list of StepOutcome)."""
        outcomes: dict[int, list[bool]] = {}
        for step in trace:
            if step.instruction.is_branch:
                outcomes.setdefault(step.static_index, []).append(bool(step.taken))
        return PerfectPredictor(outcomes)

    def predict(self, pc: int, instruction: Instruction) -> bool:
        outcomes = self._outcomes.get(pc)
        if not outcomes:
            return False
        cursor = self._cursor.get(pc, 0)
        if cursor >= len(outcomes):
            return outcomes[-1]
        return outcomes[cursor]

    def update(self, pc: int, taken: bool) -> None:
        self._cursor[pc] = self._cursor.get(pc, 0) + 1

    def reset(self) -> None:
        self._cursor = {pc: 0 for pc in self._outcomes}
