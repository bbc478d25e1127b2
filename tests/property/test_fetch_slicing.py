"""Slice fetch equals a one-instruction-at-a-time walk of the predicted path.

:class:`ReferenceFetch` is the per-instruction walk fetch used before it
read the program's decoded table: it asks for a prediction at every
instruction and stops or turns at each one.  The property drives both
fetchers through the same random cycles (budgets, redirects, predictor
training) on branchy programs and compares everything a caller sees.
"""

from hypothesis import given, settings, strategies as st

from repro.frontend.branch_predictor import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTaken,
    BimodalPredictor,
    BranchPredictor,
    GSharePredictor,
    PerfectPredictor,
)
from repro.frontend.fetch import FetchUnit
from repro.isa.interpreter import run_program
from repro.memory.trace_cache import TraceCache
from tests.property.test_branchy_programs import branchy_programs

PREDICTORS = {
    "always-taken": lambda program: AlwaysTaken(),
    "always-not-taken": lambda program: AlwaysNotTaken(),
    "backward-taken": lambda program: BackwardTaken(),
    "bimodal": lambda program: BimodalPredictor(size=16),
    "gshare": lambda program: GSharePredictor(size=16, history_bits=4),
    "perfect": lambda program: PerfectPredictor.from_trace(run_program(program).trace),
}


class CountingPredictor(BranchPredictor):
    """Forwards to *inner*, counting ``predict`` calls."""

    def __init__(self, inner: BranchPredictor):
        self.inner = inner
        self.calls = 0

    def predict(self, pc, instruction):
        self.calls += 1
        return self.inner.predict(pc, instruction)

    def update(self, pc, taken):
        self.inner.update(pc, taken)


class ReferenceFetch:
    """Fetch one instruction at a time; groups are (index, prediction, next pc)."""

    def __init__(self, program, predictor, width, trace_cache):
        self.program = program
        self.predictor = predictor
        self.width = width
        self.trace_cache = trace_cache
        self.pc = 0 if len(program) else None
        self.delivered = self.hits = self.misses = 0

    def redirect(self, pc):
        self.pc = pc if 0 <= pc < len(self.program) else None

    def counters(self):
        counters = {"fetch.delivered": self.delivered}
        if self.trace_cache is not None:
            counters["fetch.trace_cache_hits"] = self.hits
            counters["fetch.trace_cache_misses"] = self.misses
        return counters

    def _step(self, pc):
        inst = self.program[pc]
        if inst.is_branch:
            taken = self.predictor.predict(pc, inst)
            return (pc, taken, inst.target if taken else pc + 1)
        if inst.is_control:
            return (pc, True, inst.target)
        return (pc, None, pc + 1)

    def _walk(self, pc, limit, max_branches):
        path, branches = [], 0
        while len(path) < limit and 0 <= pc < len(self.program):
            path.append(self._step(pc))
            inst = self.program[pc]
            if inst.is_halt:
                break
            if inst.is_branch:
                branches += 1
                if max_branches is not None and branches > max_branches:
                    break
            if max_branches is None and path[-1][1] is True:
                break  # conventional fetch stops at a taken transfer
            pc = path[-1][2]
        return path

    def _outcomes(self, path):
        return [taken for pc, taken, _ in path if self.program[pc].is_branch]

    def fetch_cycle(self, budget):
        if self.pc is None:
            return []
        width = self.width if budget is None else max(0, min(self.width, budget))
        if width == 0:
            return []
        group = None
        if self.trace_cache is not None:
            cache = self.trace_cache
            path = self._walk(self.pc, min(width, cache.trace_length), cache.max_branches)
            stored = cache.lookup(self.pc, tuple(self._outcomes(path)))
            if stored is not None:
                group, expect = [], self.pc
                for index in stored[:width]:
                    if index != expect:
                        break
                    group.append(self._step(index))
                    if self.program[index].is_halt:
                        break
                    expect = group[-1][2]
                if group:
                    self.hits += 1
                else:
                    group = None
            if group is None:
                self.misses += 1
                start = self.pc
                group = self._walk(start, width, None)
                fill, outcomes = [], []
                for pc, taken, _ in path:
                    if self.program[pc].is_branch:
                        if len(outcomes) >= cache.max_branches:
                            break
                        outcomes.append(taken)
                    fill.append(pc)
                if fill:
                    cache.fill(start, tuple(outcomes), tuple(fill))
        else:
            group = self._walk(self.pc, width, None)
        self.delivered += len(group)
        last, _, after = group[-1]
        halted = self.program[last].is_halt
        self.pc = None if halted or not 0 <= after < len(self.program) else after
        return group


@given(
    branchy_programs(),
    st.sampled_from(sorted(PREDICTORS)),
    st.integers(1, 8),
    st.booleans(),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_slice_fetch_matches_reference_walk(program, predictor_name, width, cached, data):
    caches = [None, None]
    if cached:
        shape = {
            "num_sets": data.draw(st.sampled_from([1, 4, 64]), label="num_sets"),
            "trace_length": data.draw(st.integers(1, 8), label="trace_length"),
            "max_branches": data.draw(st.integers(0, 3), label="max_branches"),
        }
        caches = [TraceCache(**shape), TraceCache(**shape)]
    make = PREDICTORS[predictor_name]
    counting = CountingPredictor(make(program))
    fetch = FetchUnit(program, counting, width=width, trace_cache=caches[0])
    reference = ReferenceFetch(program, make(program), width, caches[1])

    for _ in range(data.draw(st.integers(1, 40), label="cycles")):
        if data.draw(st.integers(0, 4), label="action") == 0:
            pc = data.draw(st.integers(-1, len(program) + 1), label="redirect")
            fetch.redirect(pc)
            reference.redirect(pc)
            continue
        budget = data.draw(st.one_of(st.none(), st.integers(0, 9)), label="budget")
        expected = reference.fetch_cycle(budget)
        calls = counting.calls
        group = fetch.fetch_cycle(budget)

        assert group == [pc for pc, _, _ in expected]
        assert fetch.predictions == reference._outcomes(expected)
        assert fetch.pc == reference.pc
        assert fetch.counters() == reference.counters()
        if cached:
            assert caches[0].stats == caches[1].stats
        else:
            assert counting.calls - calls == len(fetch.predictions)

        # train both predictors the same way, as commits would
        for pc in group:
            if program[pc].is_branch:
                taken = data.draw(st.booleans(), label="outcome")
                counting.update(pc, taken)
                reference.predictor.update(pc, taken)
