"""The ring's commit log and the record views built from it on first read.

The engine logs one plain row per committed instruction; the
``StepOutcome``/``TimingRecord`` lists a :class:`ProcessorResult`
exposes are built from that log only when read.  These tests pin the
views to the values the engine produced when it built the records per
commit, and check that nothing builds them for callers that never read
them; likewise for the scheduling recurrence's ``entries``, built from
its four cycle columns.
"""

import hashlib

import pytest

from repro.api import ProcessorConfig, build_processor
from repro.baseline.dataflow import ScheduledInstruction, dataflow_schedule
from repro.frontend.branch_predictor import BimodalPredictor
from repro.isa.interpreter import MachineState, StepOutcome, run_program
from repro.ultrascalar import IdealMemory, TimingRecord
from repro.verify.oracle import commit_stream, run_oracle
from repro.workloads.generators import daxpy_loop, paper_sequence, random_ilp, store_load_pairs
from repro.workloads.kernels import bubble_sort, matmul


def test_record_fields_keep_their_order():
    assert StepOutcome._fields == (
        "static_index", "instruction", "operand_values", "result", "address", "taken", "next_pc",
    )
    assert TimingRecord._fields == (
        "seq", "static_index", "instruction", "fetch_cycle", "issue_cycle", "complete_cycle",
        "commit_cycle",
    )
    assert ScheduledInstruction._fields == (
        "seq", "step", "fetch_cycle", "issue_cycle", "complete_cycle", "commit_cycle",
    )


def _programs():
    """(name, workload, config, predictor factory) for the pinned runs."""
    yield (
        "paper",
        paper_sequence(),
        ProcessorConfig(window_size=8, fetch_width=4),
        None,
    )
    yield (
        "bubble",
        bubble_sort([5, 3, 8, 1, 9, 2, 7]),
        ProcessorConfig(window_size=16, fetch_width=4),
        BimodalPredictor,
    )
    yield (
        "daxpy",
        daxpy_loop(6),
        ProcessorConfig(window_size=16, fetch_width=4, store_forwarding=True),
        None,
    )
    # distance-dependent forwarding, from stations and from the register file
    yield (
        "selftimed",
        daxpy_loop(6),
        ProcessorConfig(window_size=16, fetch_width=4, self_timed=True),
        None,
    )
    # two shared ALUs, contended, with squashes that release held ALUs
    yield (
        "alus",
        matmul(3),
        ProcessorConfig(window_size=16, fetch_width=4, num_alus=2),
        BimodalPredictor,
    )
    # loads that really take a store's value (daxpy forwards none)
    yield (
        "forwarding",
        store_load_pairs(8),
        ProcessorConfig(window_size=16, fetch_width=4, store_forwarding=True),
        None,
    )


def _run(workload, config, predictor, design):
    memory = IdealMemory()
    memory.load_image(dict(workload.memory_image))
    return build_processor(design, config, cluster_size=4).run(
        workload.program,
        memory=memory,
        predictor=predictor() if predictor else None,
        initial_registers=workload.registers_for(),
    )


#: SHA-256 of repr(committed) per program (every design commits the same stream)
COMMITTED_SHA = {
    "paper": "ec49e3750543649f924ac2d3de0c1d4059d2e5ad49a442d88b6a2dcd21c1131c",
    "bubble": "70b1d20bd3624c9ff989e843ffa9654514d22d3fdd35803f10ef8d872ba3fd29",
    "daxpy": "4c4000c228a58e867e3fc95eb39a69fcb7a28683435e69609f304670e037dbd1",
    "forwarding": "07b1de9c7ab69563a8b601ab744f8dad6684eaff46533499f0862240c867965d",
    "selftimed": "4c4000c228a58e867e3fc95eb39a69fcb7a28683435e69609f304670e037dbd1",
    "alus": "80d80a6fdb940fb5f26277d6a1c4be560270af44fce8570970895e9482248839",
}

#: SHA-256 of repr(timings) per (program, design)
TIMINGS_SHA = {
    ("paper", "us1"): "dd3e1194828acf039a4a0f6f6fb72a8da7a7972b10bf84e75f84b402500390e1",
    ("paper", "us2"): "d854890d0821f0da94b9ea242bbea13d8cd8f28d98d33052484cf2a54b18f14c",
    ("paper", "hybrid"): "d854890d0821f0da94b9ea242bbea13d8cd8f28d98d33052484cf2a54b18f14c",
    ("bubble", "us1"): "ed801dd6ede4e49632a6522cf31637695e9afb6b832d94e2de2a252533e9cc0c",
    ("bubble", "us2"): "83b8242e10cc048005bd32002b0afc8f19721b231780f5dd118a24d09b4eac17",
    ("bubble", "hybrid"): "ed801dd6ede4e49632a6522cf31637695e9afb6b832d94e2de2a252533e9cc0c",
    ("daxpy", "us1"): "c830bf1b4882c88cd4516c2c97f0eb85152f2db6abcc8a7870d5fb32b4ec8a54",
    ("daxpy", "us2"): "89ff18a324920353f83e7c96bee7032b4ac682b6303973acfb47b12c1511fc1d",
    ("daxpy", "hybrid"): "7e51aa68c1c6f94f5de54504c1a0dbd119c9a69e436c2a95962b67dd90229b86",
    ("forwarding", "us1"): "4128cdd227c993cd62a9802173dd37ed128b4fb6b6bd0548397d225d8335ac55",
    ("forwarding", "us2"): "4e7e91c6be7982a63d1cf6b58efb40fff9afe4aaaf49abca36196a4f7fd2c022",
    ("forwarding", "hybrid"): "b48bf502001c858f989eac8794ce1cf0a840d67a9999aac17540d11cbcf3d369",
    ("selftimed", "us1"): "b8ab7676051ca1a1a11120c48dbb1e4f3b2990515fb34d3133c7e579e8316516",
    ("selftimed", "us2"): "5f02b02eeef4849fa5ea55ecc8850482ff57f88b0594d606f71c495711f55bf7",
    ("selftimed", "hybrid"): "78cf075be1dc6500c559a2f4c5dd3b96e587979a71b669b1b0d90353d83aacfb",
    ("alus", "us1"): "ba1cac375eae302cd4c58639665dc0f6a46d7e0af973a9619844728ec3b22c5b",
    ("alus", "us2"): "e06db36eae57c78bf77f06ad2bf88619bdd3aaaba566a7d04648b8476e9116e2",
    ("alus", "hybrid"): "d008b292a16aad948613eeec50548655b49a99d2da7901e002ff64122aa7d136",
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("design", ["us1", "us2", "hybrid"])
@pytest.mark.parametrize("name, workload, config, predictor", list(_programs()))
def test_views_equal_the_per_commit_records(name, workload, config, predictor, design):
    result = _run(workload, config, predictor, design)
    if name in ("bubble", "alus"):
        assert result.mispredictions > 0
    if name == "forwarding":
        assert result.forwarded_loads > 0
    assert all(type(step) is StepOutcome for step in result.committed)
    assert all(type(record) is TimingRecord for record in result.timings)
    assert _sha(result.committed) == COMMITTED_SHA[name]
    assert _sha(result.timings) == TIMINGS_SHA[name, design]


def _count_constructions(monkeypatch, cls) -> list[int]:
    built = [0]
    original = cls.__new__

    def counting(klass, *args, **kwargs):
        built[0] += 1
        return original(klass, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return built


def test_summary_reads_build_no_records(monkeypatch):
    outcomes = _count_constructions(monkeypatch, StepOutcome)
    timings = _count_constructions(monkeypatch, TimingRecord)
    workload = random_ilp(64, 0.5, seed=3)
    result = build_processor("us1", ProcessorConfig(window_size=16)).run(
        workload.program, initial_registers=workload.registers_for()
    )
    assert result.ipc > 0 and result.cycles > 0 and result.registers
    assert outcomes == [0] and timings == [0]

    committed = result.committed
    assert committed is result.committed  # built once, then cached
    assert outcomes == [len(committed)] and timings == [0]
    assert len(result.timings) == result.instructions_committed == len(committed)


def test_schedule_summary_reads_build_no_records(monkeypatch):
    entries = _count_constructions(monkeypatch, ScheduledInstruction)
    workload = random_ilp(64, 0.5, seed=3)
    trace = run_program(workload.program, state=MachineState(workload.registers_for())).trace
    schedule = dataflow_schedule(trace, fetch_width=4, window_size=16)
    assert schedule.ipc > 0 and schedule.cycles == schedule.commit_cycles[-1] + 1
    assert entries == [0]

    built = schedule.entries
    assert built is schedule.entries  # built once, then cached
    assert entries == [len(trace)] == [len(built)]
    assert [entry.commit_cycle for entry in built] == schedule.commit_cycles
    assert [entry.step for entry in built] == trace


def test_commit_log_reduces_like_the_committed_view():
    workload = daxpy_loop(4)
    result = _run(workload, ProcessorConfig(window_size=16), None, "us1")
    oracle = run_oracle(workload.program, workload.registers_for(), dict(workload.memory_image))
    assert commit_stream(result.commit_log) == commit_stream(result.committed) == oracle.commits
