"""Integration: the default ("perfect") predictor and its interpreter pre-pass.

Control-free programs need no pre-pass; a runaway loop's pre-pass stops
at what the engine could commit, so the engine's own ``max_cycles``
watchdog fires quickly.
"""

import time

import pytest

import repro.isa.interpreter as interpreter
from repro.frontend.branch_predictor import PerfectPredictor
from repro.isa import assemble
from repro.ultrascalar import (
    IdealMemory,
    ProcessorConfig,
    make_hybrid,
    make_ultrascalar1,
    make_ultrascalar2,
)
from repro.workloads import daxpy_loop, random_ilp

KINDS = ["us1", "us2", "hyb"]


def build(program, kind, config, **kwargs):
    if kind == "us1":
        return make_ultrascalar1(program, config, **kwargs)
    if kind == "us2":
        return make_ultrascalar2(program, config, **kwargs)
    return make_hybrid(program, 2, config, **kwargs)


@pytest.mark.parametrize("kind", KINDS)
def test_control_free_program_skips_the_interpreter(kind, monkeypatch):
    workload = random_ilp(64, 0.5, seed=11)
    program = workload.program
    config = ProcessorConfig(window_size=8, fetch_width=4)
    explicit = PerfectPredictor.from_trace(interpreter.run_program(program).trace)
    reference = build(
        program, kind, config,
        predictor=explicit, initial_registers=workload.registers_for(),
    ).run()

    def no_interpreter(*args, **kwargs):
        raise AssertionError("the pre-pass ran on a control-free program")

    monkeypatch.setattr(interpreter, "run_program", no_interpreter)
    result = build(program, kind, config, initial_registers=workload.registers_for()).run()
    assert result.cycles == reference.cycles
    assert result.timings == reference.timings
    assert result.registers == reference.registers


@pytest.mark.parametrize("kind", KINDS)
def test_branchy_program_never_mispredicts(kind):
    workload = daxpy_loop(6)
    memory = IdealMemory()
    memory.load_image(dict(workload.memory_image))
    config = ProcessorConfig(window_size=8, fetch_width=4)
    result = build(workload.program, kind, config, memory=memory).run()
    assert result.mispredictions == 0
    assert result.squashed == 0
    assert result.halted


@pytest.mark.parametrize("kind", KINDS)
def test_runaway_loop_hits_max_cycles_quickly(kind):
    program = assemble(
        """
    top:
        addi r1, r1, 1
        j    top
        """
    )
    config = ProcessorConfig(window_size=8, fetch_width=4, max_cycles=2000)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="max_cycles"):
        build(program, kind, config).run()
    assert time.perf_counter() - start < 1.0
