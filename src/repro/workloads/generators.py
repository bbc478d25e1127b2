"""Concrete workload generators.  See package docstring."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import MachineSpec
from repro.util.rng import make_rng

#: the paper's L: every workload runs on the default 32-register machine
L = MachineSpec().num_registers


@dataclass(frozen=True)
class Workload:
    """A program plus its initial machine state and provenance."""

    name: str
    program: Program
    initial_registers: list[int] = field(default_factory=list)
    memory_image: dict[int, int] = field(default_factory=dict)
    description: str = ""

    def registers_for(self) -> list[int]:
        """Initial register file padded/truncated to the machine size."""
        count = self.program.spec.num_registers
        regs = list(self.initial_registers[:count])
        regs.extend([0] * (count - len(regs)))
        return regs


def paper_sequence() -> Workload:
    """The 8-instruction sequence of the paper's Figures 1 and 3.

    ::

        R3 = R1 / R2      (division, 10 cycles)
        R0 = R0 + R3
        R1 = R5 + R6
        R1 = R0 + R1
        R2 = R5 * R6      (multiplication, 3 cycles)
        R2 = R2 + R4
        R0 = R5 - R6
        R4 = R0 + R7

    Initial R0 = 10 per Figure 1 ("The initial value, equal to 10, is
    marked ready"); the remaining inputs are chosen arbitrarily.
    """
    source = """
        div r3, r1, r2
        add r0, r0, r3
        add r1, r5, r6
        add r1, r0, r1
        mul r2, r5, r6
        add r2, r2, r4
        sub r0, r5, r6
        add r4, r0, r7
        halt
    """
    regs = [0] * L
    regs[0] = 10
    regs[1] = 84
    regs[2] = 2
    regs[4] = 7
    regs[5] = 46
    regs[6] = 4
    regs[7] = 5
    return Workload(
        name="paper-figure3",
        program=assemble(source),
        initial_registers=regs,
        description="The 8-instruction example of the paper's Figures 1 and 3",
    )


def dependency_chain(length: int) -> Workload:
    """A serial chain ``r1 += r2`` repeated: ILP = 1, the worst case."""
    if length < 1:
        raise ValueError("length must be positive")
    insts = [Instruction(Opcode.ADD, rd=1, rs1=1, rs2=2) for _ in range(length)]
    insts.append(Instruction(Opcode.HALT))
    regs = [0] * L
    regs[2] = 1
    return Workload(
        name=f"chain-{length}",
        program=Program.from_instructions(insts),
        initial_registers=regs,
        description="Serial dependency chain (ILP = 1)",
    )


def independent_ops(count: int) -> Workload:
    """Fully independent adds spread over the register file: ILP = count."""
    if count < 1:
        raise ValueError("count must be positive")
    insts = []
    for i in range(count):
        rd = 2 + (i % (L - 2))
        insts.append(Instruction(Opcode.ADD, rd=rd, rs1=0, rs2=1))
    insts.append(Instruction(Opcode.HALT))
    regs = [0] * L
    regs[0] = 3
    regs[1] = 4
    return Workload(
        name=f"independent-{count}",
        program=Program.from_instructions(insts),
        initial_registers=regs,
        description="Independent operations (maximal ILP)",
    )


def random_ilp(count: int, dependency_fraction: float = 0.5, seed: int | None = None) -> Workload:
    """Random ALU instructions with a tunable dependence density.

    Each instruction's sources are, with probability
    *dependency_fraction*, a recently written register (RAW pressure);
    otherwise one of the read-only input registers.  Destinations cycle
    through the upper register file.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not 0.0 <= dependency_fraction <= 1.0:
        raise ValueError("dependency_fraction must be in [0, 1]")
    rng = make_rng(seed)
    inputs = list(range(0, L // 4))  # read-only inputs
    dests = list(range(L // 4, L))
    ops = [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.MUL]
    recent: list[int] = []

    def pick_source() -> int:
        if recent and rng.random() < dependency_fraction:
            return recent[rng.integers(max(0, len(recent) - 4), len(recent))]
        return inputs[rng.integers(0, len(inputs))]

    insts = []
    for i in range(count):
        rd = dests[i % len(dests)]
        op = ops[rng.integers(0, len(ops))]
        insts.append(Instruction(op, rd=rd, rs1=pick_source(), rs2=pick_source()))
        recent.append(rd)
    insts.append(Instruction(Opcode.HALT))
    regs = [rng.integers(1, 100) for _ in range(L)]
    return Workload(
        name=f"random-ilp-{count}-{dependency_fraction}",
        program=Program.from_instructions(insts),
        initial_registers=regs,
        description=f"Random dependence graph, density {dependency_fraction}",
    )


def daxpy_loop(iterations: int) -> Workload:
    """``y[i] = a * x[i] + y[i]`` over *iterations* elements.

    The memory-rich loop the paper's M(n) = Θ(n) regime models: two
    loads, one multiply, one add, one store per iteration.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    source = f"""
        li   r1, {iterations}   # counter
        li   r2, 1000           # x base
        li   r3, 2000           # y base
        li   r4, 3              # a
      loop:
        lw   r5, 0(r2)
        lw   r6, 0(r3)
        mul  r7, r4, r5
        add  r7, r7, r6
        sw   r7, 0(r3)
        addi r2, r2, 4
        addi r3, r3, 4
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """
    image = {}
    for i in range(iterations):
        image[1000 + 4 * i] = i + 1          # x[i]
        image[2000 + 4 * i] = 10 * (i + 1)   # y[i]
    return Workload(
        name=f"daxpy-{iterations}",
        program=assemble(source),
        memory_image=image,
        description="daxpy loop: 2 loads + 1 store per iteration (memory-bound)",
    )


def reduction_loop(iterations: int) -> Workload:
    """Sum an array: one load + one serial add per iteration."""
    if iterations < 1:
        raise ValueError("iterations must be positive")
    source = f"""
        li   r1, {iterations}
        li   r2, 1000
        li   r3, 0              # accumulator
      loop:
        lw   r4, 0(r2)
        add  r3, r3, r4
        addi r2, r2, 4
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """
    image = {1000 + 4 * i: i + 1 for i in range(iterations)}
    return Workload(
        name=f"reduce-{iterations}",
        program=assemble(source),
        memory_image=image,
        description="Array reduction (serial accumulator, parallel loads)",
    )


def pointer_chase(length: int) -> Workload:
    """Follow a linked chain: fully serial loads (memory latency bound)."""
    if length < 1:
        raise ValueError("length must be positive")
    source = f"""
        li   r1, {length}
        li   r2, 1000           # head pointer
      loop:
        lw   r2, 0(r2)
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """
    image = {}
    addr = 1000
    for i in range(length):
        next_addr = 1000 + 8 * (i + 1)
        image[addr] = next_addr
        addr = next_addr
    return Workload(
        name=f"chase-{length}",
        program=assemble(source),
        memory_image=image,
        description="Pointer chase: serially dependent loads",
    )


def spaced_chain(length: int, distance: int) -> Workload:
    """A dependency chain where each instruction depends on the one
    *distance* earlier (padded with independent filler in between).

    With ``distance = 1`` producers and consumers sit in adjacent ring
    stations; with large *distance* they sit far apart in the H-tree —
    the contrast behind the paper's self-timed observation that
    "a program could run faster if most of its instructions depend on
    their immediate predecessors rather than on far-previous
    instructions".
    """
    if length < 1 or distance < 1:
        raise ValueError("length and distance must be positive")
    if L < distance + 4:
        raise ValueError("register file too small for the requested distance")
    insts: list[Instruction] = []
    for i in range(length):
        slot = i % distance
        if slot == 0:
            # the chain link: depends on the value produced `distance` ago
            insts.append(Instruction(Opcode.ADD, rd=1, rs1=1, rs2=2))
        else:
            # independent filler occupying the stations in between
            insts.append(Instruction(Opcode.ADD, rd=3 + slot, rs1=0, rs2=2))
    insts.append(Instruction(Opcode.HALT))
    regs = [0] * L
    regs[2] = 1
    return Workload(
        name=f"spaced-{length}@{distance}",
        program=Program.from_instructions(insts),
        initial_registers=regs,
        description=f"Dependency chain with producer-consumer distance {distance}",
    )


def store_load_pairs(count: int) -> Workload:
    """Store-then-load-same-address pairs under a long-latency shadow.

    A slow divide keeps the window from committing, so every load finds
    its producing store still in the window — the memory-renaming
    (store-forwarding) best case the paper's Section 7 suggests for
    reducing memory bandwidth.
    """
    if count < 1:
        raise ValueError("count must be positive")
    insts = [
        Instruction(Opcode.LI, rd=1, imm=4096),
        Instruction(Opcode.LI, rd=2, imm=9),
        Instruction(Opcode.LI, rd=3, imm=77),
        Instruction(Opcode.DIV, rd=4, rs1=3, rs2=2),  # slow op holds commit
    ]
    for i in range(count):
        reg = 5 + (i % (L - 5))
        insts.append(Instruction(Opcode.SW, rs2=2, rs1=1, imm=4 * i))
        insts.append(Instruction(Opcode.LW, rd=reg, rs1=1, imm=4 * i))
    insts.append(Instruction(Opcode.HALT))
    return Workload(
        name=f"store-load-{count}",
        program=Program.from_instructions(insts),
        description="Store/load-same-address pairs (memory-renaming best case)",
    )


def repeated_reduction(elements: int, passes: int) -> Workload:
    """Sum the same array *passes* times: heavy read reuse.

    The workload for the Section 7 distributed-cluster-cache idea —
    after the first pass the data lives in the cluster caches and the
    shared-memory bandwidth demand collapses.
    """
    if elements < 1 or passes < 1:
        raise ValueError("elements and passes must be positive")
    source = f"""
        li   r1, {passes}
        li   r3, 0              # grand total
      pass:
        li   r2, 1024           # array base
        li   r4, {elements}
      elem:
        lw   r5, 0(r2)
        add  r3, r3, r5
        addi r2, r2, 4
        addi r4, r4, -1
        bne  r4, r0, elem
        addi r1, r1, -1
        bne  r1, r0, pass
        halt
    """
    image = {1024 + 4 * i: i + 1 for i in range(elements)}
    return Workload(
        name=f"rereduce-{elements}x{passes}",
        program=assemble(source),
        memory_image=image,
        description="Repeated array reduction (read reuse for cluster caches)",
    )


def parallel_loads(count: int) -> Workload:
    """Independent loads from spread addresses: pure bandwidth pressure.

    Unlike stores (which the Ultrascalar serializes against all earlier
    memory operations), loads only wait for earlier *stores* — so a pure
    load stream exercises the fat-tree/bank parallelism directly.
    """
    if count < 1:
        raise ValueError("count must be positive")
    insts = []
    image = {}
    for i in range(count):
        reg = 1 + (i % (L - 1))
        address = 4096 + 4 * i
        image[address] = i + 1
        insts.append(Instruction(Opcode.LW, rd=reg, rs1=0, imm=address))
    insts.append(Instruction(Opcode.HALT))
    return Workload(
        name=f"loads-{count}",
        program=Program.from_instructions(insts),
        memory_image=image,
        description="Independent parallel loads (bandwidth-bound)",
    )


def jump_chain(blocks: int) -> Workload:
    """Blocks of three ALU instructions chained by unconditional jumps.

    Conventional fetch stops at each taken transfer, capping delivery at
    four instructions per cycle; a trace cache fetches across the jumps
    — the fetch-bandwidth scenario trace caches exist for.
    """
    if blocks < 1:
        raise ValueError("blocks must be positive")
    block_size = 3
    insts: list[Instruction] = []
    for b in range(blocks):
        for k in range(block_size):
            rd = 2 + ((b * block_size + k) % (L - 2))
            insts.append(Instruction(Opcode.ADD, rd=rd, rs1=0, rs2=1))
        target = (b + 1) * (block_size + 1)
        insts.append(Instruction(Opcode.J, target=target))
    insts.append(Instruction(Opcode.HALT))
    regs = [0] * L
    regs[0], regs[1] = 1, 2
    return Workload(
        name=f"jumps-{blocks}x{block_size}",
        program=Program.from_instructions(insts),
        initial_registers=regs,
        description="Jump-chained blocks (trace-cache fetch stressor)",
    )
