"""Bit-identical re-execution of the processor models.

The process-pool runner assumes an experiment computes the same result
no matter which process (or which run) executes it.  These tests pin
that contract at the simulator level: two runs of each design on the
same kernel must agree on every field of :class:`ProcessorResult`.
"""

import dataclasses

import pytest

from repro.api import IdealMemory, ProcessorConfig, ProcessorResult, build_processor
from repro.workloads import fibonacci


def _run_once(kind: str) -> ProcessorResult:
    workload = fibonacci(8)
    config = ProcessorConfig(window_size=16, fetch_width=16)
    memory = IdealMemory()
    memory.load_image(workload.memory_image)
    return build_processor(kind, config, cluster_size=4).run(
        workload.program, memory=memory, initial_registers=workload.registers_for()
    )


@pytest.mark.parametrize("kind", ["us1", "us2", "hybrid"])
def test_processor_result_bit_identical(kind):
    first = _run_once(kind)
    second = _run_once(kind)
    assert first.cycles == second.cycles
    assert first.registers == second.registers
    assert first.memory == second.memory
    assert first.timings == second.timings
    assert first.committed == second.committed
    # and everything else, in one sweep
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
