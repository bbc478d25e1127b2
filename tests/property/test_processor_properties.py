"""Property-based tests: random programs never diverge from the golden model."""

from hypothesis import given, settings, strategies as st

from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.isa import Instruction, Opcode, Program
from repro.isa.interpreter import MachineState, run_program

REGS = st.integers(0, 7)  # small register universe concentrates dependencies
SPEC_L = 32

alu_ops = st.sampled_from(
    [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.MUL, Opcode.DIV]
)


@st.composite
def straightline_programs(draw):
    """Random register-only programs ending in HALT."""
    count = draw(st.integers(1, 25))
    instructions = []
    for _ in range(count):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            instructions.append(
                Instruction(draw(alu_ops), rd=draw(REGS), rs1=draw(REGS), rs2=draw(REGS))
            )
        elif kind == 1:
            instructions.append(
                Instruction(Opcode.LI, rd=draw(REGS), imm=draw(st.integers(-100, 100)))
            )
        else:
            instructions.append(
                Instruction(
                    Opcode.ADDI, rd=draw(REGS), rs1=draw(REGS), imm=draw(st.integers(-50, 50))
                )
            )
    instructions.append(Instruction(Opcode.HALT))
    return Program.from_instructions(instructions)


@st.composite
def memory_programs(draw):
    """Random programs with loads/stores at safe aligned addresses."""
    count = draw(st.integers(1, 20))
    instructions = [Instruction(Opcode.LI, rd=1, imm=64)]  # base pointer
    for _ in range(count):
        kind = draw(st.integers(0, 3))
        offset = 4 * draw(st.integers(0, 7))
        if kind == 0:
            instructions.append(Instruction(Opcode.SW, rs2=draw(REGS), rs1=1, imm=offset))
        elif kind == 1:
            instructions.append(Instruction(Opcode.LW, rd=draw(REGS.filter(lambda r: r != 1)), rs1=1, imm=offset))
        elif kind == 2:
            instructions.append(
                Instruction(Opcode.ADD, rd=draw(REGS.filter(lambda r: r != 1)), rs1=draw(REGS), rs2=draw(REGS))
            )
        else:
            instructions.append(
                Instruction(Opcode.LI, rd=draw(REGS.filter(lambda r: r != 1)), imm=draw(st.integers(0, 50)))
            )
    instructions.append(Instruction(Opcode.HALT))
    return Program.from_instructions(instructions)


def golden(program):
    return run_program(program, state=MachineState.zeroed(SPEC_L))


@given(straightline_programs(), st.sampled_from([1, 2, 5, 8, 32]))
@settings(max_examples=40, deadline=None)
def test_us1_matches_golden_on_random_programs(program, window):
    config = ProcessorConfig(window_size=window, fetch_width=4)
    result = build_processor("us1", config).run(program, memory=IdealMemory())
    reference = golden(program)
    assert result.registers == reference.state.registers
    assert len(result.committed) == reference.dynamic_length


@given(straightline_programs(), st.sampled_from([1, 4, 16]))
@settings(max_examples=30, deadline=None)
def test_us2_matches_golden_on_random_programs(program, window):
    config = ProcessorConfig(window_size=window, fetch_width=4)
    result = build_processor("us2", config).run(program, memory=IdealMemory())
    reference = golden(program)
    assert result.registers == reference.state.registers


@given(straightline_programs(), st.sampled_from([(8, 2), (8, 8), (16, 4)]))
@settings(max_examples=30, deadline=None)
def test_hybrid_matches_golden_on_random_programs(program, shape):
    window, cluster = shape
    config = ProcessorConfig(window_size=window, fetch_width=4)
    result = build_processor("hybrid", config, cluster_size=cluster).run(
        program, memory=IdealMemory()
    )
    reference = golden(program)
    assert result.registers == reference.state.registers


@given(memory_programs(), st.sampled_from(["us1", "us2"]))
@settings(max_examples=30, deadline=None)
def test_memory_programs_match_golden(program, kind):
    config = ProcessorConfig(window_size=8, fetch_width=4)
    result = build_processor(kind, config).run(program, memory=IdealMemory())
    reference = golden(program)
    assert result.registers == reference.state.registers
    for address, value in reference.state.memory.items():
        assert result.memory.get(address, 0) == value


@given(straightline_programs())
@settings(max_examples=30, deadline=None)
def test_commit_order_is_program_order(program):
    config = ProcessorConfig(window_size=8, fetch_width=4)
    result = build_processor("us1", config).run(program, memory=IdealMemory())
    reference = golden(program)
    assert [s.static_index for s in result.committed] == [
        s.static_index for s in reference.trace
    ]


@given(straightline_programs())
@settings(max_examples=30, deadline=None)
def test_timing_sanity_invariants(program):
    """fetch <= issue <= complete <= commit for every instruction."""
    config = ProcessorConfig(window_size=8, fetch_width=4)
    result = build_processor("us1", config).run(program, memory=IdealMemory())
    for t in result.timings:
        assert t.fetch_cycle <= t.issue_cycle <= t.complete_cycle <= t.commit_cycle
    commits = [t.commit_cycle for t in result.timings]
    assert commits == sorted(commits)
