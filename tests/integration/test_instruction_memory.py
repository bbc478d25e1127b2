"""Integration: programs survive the binary encoding round trip, and a
processor running the decoded instruction words behaves identically."""

import pytest

from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.isa import Instruction, Opcode, Program, decode_instruction, encode_instruction
from repro.isa.encoding import EncodingError
from repro.isa.registers import MachineSpec
from repro.workloads import (
    bubble_sort,
    daxpy_loop,
    fibonacci,
    paper_sequence,
    random_ilp,
    reduction_loop,
)

WORKLOADS = [
    paper_sequence(),
    daxpy_loop(4),
    reduction_loop(5),
    fibonacci(10),
    bubble_sort([4, 1, 3]),
    random_ilp(30, 0.5, seed=501),
]


def _words(program):
    return [encode_instruction(inst) for inst in program]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
class TestRoundTrip:
    def test_every_workload_encodes_and_decodes(self, workload):
        # branch targets survive: the encoding stores static instruction
        # indices, the address space fetch uses
        decoded = [decode_instruction(w) for w in _words(workload.program)]
        assert decoded == list(workload.program)

    def test_decoded_program_runs_identically(self, workload):
        decoded = Program(
            tuple(decode_instruction(w) for w in _words(workload.program)),
            {},
            workload.program.spec,
        )
        config = ProcessorConfig(window_size=16, fetch_width=4)

        def run(program):
            memory = IdealMemory()
            memory.load_image(workload.memory_image)
            return build_processor("us1", config).run(
                program, memory=memory, initial_registers=workload.registers_for()
            )

        original = run(workload.program)
        redecoded = run(decoded)
        assert redecoded.cycles == original.cycles
        assert redecoded.registers == original.registers
        assert redecoded.memory == original.memory


class TestLimits:
    def test_large_register_files_rejected(self):
        spec = MachineSpec(num_registers=64)
        program = Program.from_instructions(
            [Instruction(Opcode.ADD, rd=63, rs1=0, rs2=0), Instruction(Opcode.HALT)],
            spec,
        )
        with pytest.raises(EncodingError):
            _words(program)

    def test_raw_words_accessible(self):
        words = _words(paper_sequence().program)
        assert all(0 <= w < (1 << 32) for w in words)
        assert len(words) == 9
