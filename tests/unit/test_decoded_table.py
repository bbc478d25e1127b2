"""The per-program decoded table: its rows, its stop array, and its lifetime."""

import itertools

from repro.api import ProcessorConfig, build_processor
from repro.isa import Instruction, LatencyModel, Opcode, OpClass, Program, assemble
from repro.isa.interpreter import ALU_OPS, BRANCH_OPS, SEMANTICS
from repro.isa.opcodes import Format
from repro.workloads.generators import random_ilp

OPERANDS = {"rd": 1, "rs1": 2, "rs2": 3, "imm": -4, "target": 1}


def sample(op: Opcode) -> Instruction:
    """The one operand combination *op*'s format accepts."""
    for size in range(len(OPERANDS) + 1):
        for names in itertools.combinations(OPERANDS, size):
            try:
                return Instruction(op, **{name: OPERANDS[name] for name in names})
            except ValueError:
                continue
    raise AssertionError(f"no operand set builds {op}")


def test_every_opcode_row_matches_instruction_and_opinfo():
    for op in Opcode:
        inst = sample(op)
        row = Program.from_instructions([inst, Instruction(Opcode.HALT)]).decoded[0]
        info = op.info
        assert (op.mnemonic, op.op_class, op.fmt, op.code) == (
            info.mnemonic, info.op_class, info.fmt, info.code
        )
        assert row.op is op
        assert row.code == op.code
        assert (row.imm, row.target) == (inst.imm, inst.target)
        assert row.sources == inst.reads
        assert row.dest == (inst.writes[0] if inst.writes else None)
        assert row.op_class is info.op_class
        assert row.is_load == inst.is_load == (op is Opcode.LW)
        assert row.is_store == inst.is_store == (op is Opcode.SW)
        assert row.is_memory == inst.is_memory == (op in (Opcode.LW, Opcode.SW))
        assert row.is_branch == inst.is_branch == (info.fmt is Format.B2)
        assert row.is_control == inst.is_control == (info.fmt in (Format.B2, Format.J))
        assert row.is_halt == inst.is_halt == (op is Opcode.HALT)
        assert row.uses_alu == (info.op_class is not OpClass.SYSTEM)


def test_every_opcode_has_exactly_one_semantics():
    for op in Opcode:
        handlers = [op in ALU_OPS, op in BRANCH_OPS, op.is_memory, op is Opcode.J, not op.uses_alu]
        assert handlers.count(True) == 1, op
        assert SEMANTICS[op.code] is (ALU_OPS.get(op) or BRANCH_OPS.get(op)), op


def test_latency_is_looked_up_per_op_class():
    model = LatencyModel(alu=2, mul=3, div=4, load=5, store=6, branch=7, jump=8, system=9)
    for op in Opcode:
        assert model.by_code[op.code] == getattr(model, op.op_class.value)


def test_stops_mark_the_next_control_transfer_or_halt():
    program = assemble("nop\nnop\nbeq r1, r2, end\nnop\nj end\nnop\nend: halt\nnop")
    assert program.stops == [2, 2, 2, 4, 4, 6, 6, 8]


def test_two_runs_build_the_table_once(monkeypatch):
    built = []
    decode = Program._decode

    def counting(program):
        built.append(program)
        return decode(program)

    monkeypatch.setattr(Program, "_decode", counting)
    workload = random_ilp(200, 0.5, seed=3)
    assert built == []  # not at construction
    for window in (8, 32):
        build_processor("us1", ProcessorConfig(window_size=window)).run(workload.program)
    assert len(built) == 1 and built[0] is workload.program
