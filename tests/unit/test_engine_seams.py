"""The ring engine's fault-injection seams stay on its per-instruction path.

The mutation tests (``tests/unit/test_verify.py``) break the engine by
wrapping a few of its functions: ``RingProcessor._operand`` (the one
read path of an issued operand), ``RingProcessor._allocate`` (one call
per fetched instruction) and the module-level ``ring._release`` (one
call per freed or squashed station, from ``_free`` and ``_mispredict``).
A rewrite that inlined one of them would leave those tests injecting
into code the engine no longer runs.  These tests count the calls on a
mispredicting run and a store-forwarding run, on every design.
"""

import pytest

import repro.ultrascalar.ring as ring
from repro.api import ProcessorConfig, build_processor
from repro.frontend.branch_predictor import BimodalPredictor
from repro.ultrascalar import IdealMemory
from repro.ultrascalar.ring import RingProcessor
from repro.workloads.generators import store_load_pairs
from repro.workloads.kernels import bubble_sort

RUNS = {
    "mispredicting": (
        bubble_sort([5, 3, 8, 1, 9, 2, 7]),
        ProcessorConfig(window_size=16, fetch_width=4),
        BimodalPredictor,
    ),
    "store-forwarding": (
        store_load_pairs(8),
        ProcessorConfig(window_size=16, fetch_width=4, store_forwarding=True),
        None,
    ),
}


class _Seams:
    """Wraps the seams and records what passes through them."""

    def __init__(self, monkeypatch):
        self.engines: list[RingProcessor] = []
        self.allocations = 0
        self.operand_reads = 0
        #: caller method -> stations released under it
        self.released: dict[str, list] = {"_free": [], "_mispredict": []}
        self._caller: list[str] = []

        allocate, operand, release = (
            RingProcessor._allocate,
            RingProcessor._operand,
            ring._release,
        )

        def counting_allocate(engine, *args):
            if not self.engines or self.engines[-1] is not engine:
                self.engines.append(engine)
            self.allocations += 1
            return allocate(engine, *args)

        def counting_operand(engine, producer, reg):
            self.operand_reads += 1
            return operand(engine, producer, reg)

        def recording_release(station):
            self.released[self._caller[-1]].append(station)
            return release(station)

        monkeypatch.setattr(RingProcessor, "_allocate", counting_allocate)
        monkeypatch.setattr(RingProcessor, "_operand", counting_operand)
        monkeypatch.setattr(ring, "_release", recording_release)
        for name in self.released:
            caller = getattr(RingProcessor, name)
            monkeypatch.setattr(RingProcessor, name, self._under(name, caller))

    def _under(self, name, method):
        def wrapped(engine, *args):
            self._caller.append(name)
            try:
                return method(engine, *args)
            finally:
                self._caller.pop()

        return wrapped


def _run(name, design, monkeypatch):
    workload, config, predictor = RUNS[name]
    seams = _Seams(monkeypatch)
    memory = IdealMemory()
    memory.load_image(dict(workload.memory_image))
    result = build_processor(design, config, cluster_size=4).run(
        workload.program,
        memory=memory,
        predictor=predictor() if predictor else None,
        initial_registers=workload.registers_for(),
    )
    [engine] = seams.engines
    return result, engine, seams


@pytest.mark.parametrize("design", ["us1", "us2", "hybrid"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_seams_see_every_instruction(name, design, monkeypatch):
    result, engine, seams = _run(name, design, monkeypatch)
    if name == "mispredicting":
        assert result.mispredictions > 0 and result.squashed > 0
    else:
        assert result.forwarded_loads > 0

    # _allocate: once per fetched instruction, committed or squashed
    assert seams.allocations == len(result.commit_log) + result.squashed

    # _release: once per squashed station, and once per freed one
    squashed, freed = seams.released["_mispredict"], seams.released["_free"]
    assert len(squashed) == result.squashed
    assert len(freed) == len(result.commit_log) - engine.count
    assert len({id(station) for station in squashed + freed}) == len(squashed) + len(freed)

    # _operand: once per source of every issued instruction, committed
    # or squashed after issue
    rows = engine.program.decoded
    issued_sources = sum(len(rows[row[0]].sources) for row in result.commit_log)
    issued_sources += sum(
        len(station.decoded.sources) for station in squashed if station.issue_cycle >= 0
    )
    assert seams.operand_reads == issued_sources
