"""Property tests with control flow: speculation never corrupts state.

Programs use only *forward* branches (so every program terminates), and
run under deliberately bad predictors to maximize misprediction and
squash traffic.  Architectural state must still match the golden
interpreter exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.frontend.branch_predictor import AlwaysNotTaken, AlwaysTaken, BimodalPredictor
from repro.isa import Instruction, Opcode, Program
from repro.isa.interpreter import MachineState, run_program

REGS = st.integers(0, 5)


@st.composite
def branchy_programs(draw):
    """Random programs with forward branches and jumps (always terminate)."""
    count = draw(st.integers(4, 24))
    instructions: list[Instruction] = []
    for i in range(count):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            instructions.append(
                Instruction(Opcode.LI, rd=draw(REGS), imm=draw(st.integers(0, 20)))
            )
        elif kind == 1:
            instructions.append(
                Instruction(Opcode.ADD, rd=draw(REGS), rs1=draw(REGS), rs2=draw(REGS))
            )
        elif kind == 2:
            instructions.append(
                Instruction(Opcode.SUB, rd=draw(REGS), rs1=draw(REGS), rs2=draw(REGS))
            )
        elif kind == 3:
            op = draw(st.sampled_from([Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE]))
            target = draw(st.integers(i + 1, count))  # strictly forward
            instructions.append(
                Instruction(op, rs1=draw(REGS), rs2=draw(REGS), target=target)
            )
        else:
            target = draw(st.integers(i + 1, count))
            instructions.append(Instruction(Opcode.J, target=target))
    instructions.append(Instruction(Opcode.HALT))
    return Program.from_instructions(instructions)


PREDICTORS = [AlwaysTaken, AlwaysNotTaken, lambda: BimodalPredictor(size=16)]


@given(branchy_programs(), st.sampled_from([0, 1, 2]), st.sampled_from([2, 5, 8]))
@settings(max_examples=60, deadline=None)
def test_us1_speculation_preserves_state(program, predictor_index, window):
    golden = run_program(program, state=MachineState.zeroed(32))
    config = ProcessorConfig(window_size=window, fetch_width=4)
    result = build_processor("us1", config).run(
        program, predictor=PREDICTORS[predictor_index](), memory=IdealMemory()
    )
    assert result.registers == golden.state.registers
    assert [s.static_index for s in result.committed] == [
        s.static_index for s in golden.trace
    ]


@given(branchy_programs(), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_us2_speculation_preserves_state(program, predictor_index):
    golden = run_program(program, state=MachineState.zeroed(32))
    config = ProcessorConfig(window_size=8, fetch_width=4)
    result = build_processor("us2", config).run(
        program, predictor=PREDICTORS[predictor_index](), memory=IdealMemory()
    )
    assert result.registers == golden.state.registers


@given(branchy_programs())
@settings(max_examples=40, deadline=None)
def test_hybrid_speculation_preserves_state(program):
    golden = run_program(program, state=MachineState.zeroed(32))
    config = ProcessorConfig(window_size=8, fetch_width=4)
    result = build_processor("hybrid", config, cluster_size=4).run(
        program, predictor=AlwaysTaken(), memory=IdealMemory()
    )
    assert result.registers == golden.state.registers


@given(branchy_programs())
@settings(max_examples=40, deadline=None)
def test_wrong_path_work_never_commits(program):
    """Every committed instruction must appear in the golden trace, in
    order, even under maximal misprediction."""
    golden = run_program(program, state=MachineState.zeroed(32))
    config = ProcessorConfig(window_size=8, fetch_width=8)
    result = build_processor("us1", config).run(
        program, predictor=AlwaysTaken(), memory=IdealMemory()
    )
    got = [(s.static_index, s.result, s.taken) for s in result.committed]
    want = [(s.static_index, s.result, s.taken) for s in golden.trace]
    assert got == want


@given(branchy_programs(), st.sampled_from([1, 2, 4]))
@settings(max_examples=30, deadline=None)
def test_extensions_with_speculation(program, num_alus):
    """Shared ALUs + forwarding + self-timed, all at once, under
    mispredicting prediction — still exact."""
    golden = run_program(program, state=MachineState.zeroed(32))
    config = ProcessorConfig(
        window_size=8, fetch_width=4, num_alus=num_alus,
        store_forwarding=True, self_timed=True,
    )
    result = build_processor("us1", config).run(
        program, predictor=AlwaysNotTaken(), memory=IdealMemory()
    )
    assert result.registers == golden.state.registers
