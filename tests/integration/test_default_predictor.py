"""Integration: the default ("perfect") predictor and its interpreter pre-pass.

Control-free programs need no pre-pass; a runaway loop's pre-pass stops
at what the engine could commit, so the engine's own ``max_cycles``
watchdog fires quickly.
"""

import re
import time

import pytest

import repro.isa.interpreter as interpreter
from repro.frontend.branch_predictor import PerfectPredictor
from repro.isa import assemble
from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.workloads import daxpy_loop, random_ilp

KINDS = ["us1", "us2", pytest.param("hybrid", id="hyb")]


@pytest.mark.parametrize("kind", KINDS)
def test_control_free_program_skips_the_interpreter(kind, monkeypatch):
    workload = random_ilp(64, 0.5, seed=11)
    program = workload.program
    config = ProcessorConfig(window_size=8, fetch_width=4)
    explicit = PerfectPredictor.from_trace(interpreter.run_program(program).trace)
    reference = build_processor(kind, config, cluster_size=2).run(
        program, predictor=explicit, initial_registers=workload.registers_for()
    )

    def no_interpreter(*args, **kwargs):
        raise AssertionError("the pre-pass ran on a control-free program")

    monkeypatch.setattr(interpreter, "run_program", no_interpreter)
    result = build_processor(kind, config, cluster_size=2).run(
        program, initial_registers=workload.registers_for()
    )
    assert result.cycles == reference.cycles
    assert result.timings == reference.timings
    assert result.registers == reference.registers


@pytest.mark.parametrize("kind", KINDS)
def test_branchy_program_never_mispredicts(kind):
    workload = daxpy_loop(6)
    memory = IdealMemory()
    memory.load_image(dict(workload.memory_image))
    config = ProcessorConfig(window_size=8, fetch_width=4)
    result = build_processor(kind, config, cluster_size=2).run(workload.program, memory=memory)
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
        build_processor(kind, config, cluster_size=2).run(program)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_max_cycles_error_says_why(kind):
    config = ProcessorConfig(window_size=8, fetch_width=4, max_cycles=20)
    with pytest.raises(RuntimeError) as spin:
        build_processor(kind, config, cluster_size=2).run(assemble("loop: j loop"))
    assert re.fullmatch(
        r"exceeded max_cycles=20: [1-9]\d* committed, [0-8] stations occupied, .*fetch not stalled",
        str(spin.value),
    )
    # a serial multiply chain keeps the window full: the oldest uncommitted
    # station is named
    chain = assemble("loop: mul r1, r1, r1\n j loop")
    with pytest.raises(RuntimeError) as stuck:
        build_processor(kind, config, cluster_size=2).run(chain)
    assert re.fullmatch(
        r"exceeded max_cycles=20: \d+ committed, 8 stations occupied, "
        r"oldest uncommitted is seq \d+ \(mul r1, r1, r1\) executing, fetch not stalled",
        str(stuck.value),
    )
