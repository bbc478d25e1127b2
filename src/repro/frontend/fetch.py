"""The fetch unit: walks the predicted path and delivers instructions.

Conventional fetch delivers up to ``width`` *contiguous* instructions
per cycle and stops at the first predicted-taken control transfer —
that is the fetch-bandwidth wall trace caches exist to break.  With a
:class:`repro.memory.trace_cache.TraceCache` attached, a hit delivers a
stored dynamic trace that may span several taken branches in a single
cycle; misses fall back to conventional fetch and fill the trace cache.

Fetch reads the program's decoded table (:attr:`repro.isa.program.
Program.decoded`): a plain run up to the next control transfer or HALT
(:attr:`~repro.isa.program.Program.stops`) is sliced in one step, and
the predictor is asked only about conditional branches.  A fetch group
is a list of static indices; :attr:`FetchUnit.predictions` holds the
predicted outcomes of the group's conditional branches, in order (a
jump is always taken).

The fetch unit is shared by all processor models; each model calls
:meth:`FetchUnit.fetch_cycle` once per simulated cycle and
:meth:`FetchUnit.redirect` on branch mispredictions.
"""

from __future__ import annotations

from repro.frontend.branch_predictor import BranchPredictor
from repro.isa.program import Program
from repro.memory.trace_cache import TraceCache


class FetchUnit:
    """See module docstring.

    Args:
        program: the static program.
        predictor: conditional-branch predictor.
        width: maximum instructions delivered per cycle.
        trace_cache: optional trace cache for multi-branch fetch.
    """

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        width: int = 4,
        trace_cache: TraceCache | None = None,
    ):
        if width < 1:
            raise ValueError("fetch width must be positive")
        self.program = program
        self.predictor = predictor
        self.width = width
        self.trace_cache = trace_cache
        self._rows = program.decoded
        self._stops = program.stops
        self._pc: int | None = 0 if len(program) else None
        #: predicted outcomes of the last group's conditional branches
        self.predictions: list[bool] = []
        self.fetched_count = 0
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0

    @property
    def pc(self) -> int | None:
        """Next PC to fetch, or ``None`` when fetch is stopped (HALT / end)."""
        return self._pc

    def redirect(self, pc: int) -> None:
        """Restart fetch at *pc* (misprediction recovery or explicit jump)."""
        if 0 <= pc < len(self.program):
            self._pc = pc
        else:
            self._pc = None

    def stalled(self) -> bool:
        """True when fetch has stopped (awaiting redirect or program end)."""
        return self._pc is None

    def counters(self) -> dict[str, int]:
        """Front-end telemetry counters (``fetch.*`` namespace)."""
        counters = {"fetch.delivered": self.fetched_count}
        if self.trace_cache is not None:
            counters["fetch.trace_cache_hits"] = self.trace_cache_hits
            counters["fetch.trace_cache_misses"] = self.trace_cache_misses
        return counters

    # -- fetch ------------------------------------------------------------

    def fetch_cycle(self, budget: int | None = None) -> list[int]:
        """Deliver this cycle's static indices along the predicted path.

        *budget* caps the delivery below the configured width (e.g. when
        the window has fewer free stations than the fetch width).
        """
        self.predictions = []
        if self._pc is None:
            return []
        width = self.width if budget is None else max(0, min(self.width, budget))
        if width == 0:
            return []
        if self.trace_cache is not None:
            group = self._fetch_with_trace_cache(width)
        else:
            group, self.predictions, self._pc = self._walk(self._pc, width, None)
        self.fetched_count += len(group)
        return group

    def _walk(
        self, pc: int, limit: int, max_branches: int | None
    ) -> tuple[list[int], list[bool], int | None]:
        """Up to *limit* instructions along the predicted path from *pc*.

        With *max_branches* ``None`` the walk stops after the first
        predicted-taken transfer (conventional fetch); otherwise it
        crosses taken transfers and stops after the conditional branch
        that exceeds *max_branches*.  Returns the static indices, the
        predictions of the conditional branches among them, and the pc
        after the last one (``None`` after HALT or off the program).
        """
        rows, stops, end = self._rows, self._stops, len(self._rows)
        group: list[int] = []
        predictions: list[bool] = []
        while True:
            stop = stops[pc]
            room = limit - len(group)
            if stop - pc >= room:  # the plain run fills the group
                group.extend(range(pc, pc + room))
                pc += room
                break
            group.extend(range(pc, stop))
            if stop == end:  # the plain run reached the end of the program
                return group, predictions, None
            group.append(stop)
            row = rows[stop]
            if row.is_halt:
                return group, predictions, None
            taken = True
            if row.is_branch:
                taken = self.predictor.predict(stop, self.program.instructions[stop])
                predictions.append(taken)
            pc = row.target if taken else stop + 1
            if max_branches is None:
                if taken:
                    break
            elif row.is_branch and len(predictions) > max_branches:
                break
            if len(group) == limit or not 0 <= pc < end:
                break
        return group, predictions, pc if 0 <= pc < end else None

    def _fetch_with_trace_cache(self, width: int) -> list[int]:
        cache = self.trace_cache
        assert cache is not None and self._pc is not None
        start_pc = self._pc
        # Walk the predicted path to build the outcome vector we want.
        path, outcomes, after = self._walk(
            start_pc, min(width, cache.trace_length), cache.max_branches
        )
        stored = cache.lookup(start_pc, tuple(outcomes))
        if stored is not None:
            # Deliver the stored trace's prefix (truncated to the fetch
            # width) that the fresh predictions still follow.
            count = 0
            for static_index, predicted in zip(stored[:width], path):
                if static_index != predicted:
                    break  # stale trace (path diverged); deliver the prefix
                count += 1
            if count:
                self.trace_cache_hits += 1
                group = path[:count]
                branches = sum(self._rows[index].is_branch for index in group)
                self.predictions = outcomes[:branches]
                self._pc = path[count] if count < len(path) else after
                return group
        # Miss: conventional fetch this cycle, then fill the trace cache
        # with the predicted path, up to its last branch that fits.
        self.trace_cache_misses += 1
        group, self.predictions, self._pc = self._walk(start_pc, width, None)
        if len(outcomes) > cache.max_branches:
            path, outcomes = path[:-1], outcomes[:-1]
        if path:
            cache.fill(start_pc, tuple(outcomes), tuple(path))
        return group
