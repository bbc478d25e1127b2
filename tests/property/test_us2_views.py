"""Property: the Ultrascalar II — the ring with one cluster of ``n``
stations — routes every argument exactly as the grid network's
behavioural router does, closing the loop between the processor model
and the Figure 7/8 circuits."""

from hypothesis import given, settings, strategies as st

from repro.api import ProcessorConfig, build_processor
from repro.circuits.grid import RegisterBinding, route_arguments
from repro.frontend.branch_predictor import AlwaysNotTaken
from repro.isa import Instruction, Opcode, Program
from repro.ultrascalar.station import StationState
from tests.oracles import occupied_stations

L = 6
REGS = st.integers(0, L - 1)


@st.composite
def batch_programs(draw):
    count = draw(st.integers(1, 8))
    instructions = [
        Instruction(
            draw(st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.SUB])),
            rd=draw(REGS),
            rs1=draw(REGS),
            rs2=draw(REGS),
        )
        for _ in range(count)
    ]
    instructions.append(Instruction(Opcode.HALT))
    from repro.isa.registers import MachineSpec

    return Program.from_instructions(instructions, MachineSpec(num_registers=L))


@given(batch_programs(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_batch_views_equal_grid_router(program, cycles):
    """At an arbitrary mid-execution cycle, the stations' producer-link
    reads and the circuits' route_arguments agree on every argument."""
    config = ProcessorConfig(window_size=8, fetch_width=8)

    def check_at_drawn_cycle(engine):
        assert engine.cluster_size == config.window_size
        steps = engine.cycle + 1
        if steps == cycles or (engine.halted and steps < cycles):
            check_views(engine)

    build_processor("us2", config).run(
        program, predictor=AlwaysNotTaken(), cycle_hook=check_at_drawn_cycle
    )


def check_views(processor):
    """The producer-link reads of *processor*'s batch equal the grid's."""
    batch = occupied_stations(processor)
    if not batch:
        return

    initial = [(value, True) for value in processor.committed_regs]
    writes = []
    reads = []
    for station in batch:
        reg = station.decoded.dest
        if reg is None:
            writes.append(None)
        else:
            writes.append(
                RegisterBinding(
                    reg,
                    station.result if station.result is not None else 0,
                    station.state is StationState.DONE and station.result is not None,
                )
            )
        reads.append(list(station.decoded.sources))

    routed = route_arguments(L, initial, writes, reads)
    for index, station in enumerate(batch):
        for port, (reg, producer) in enumerate(zip(reads[index], station.producers)):
            grid_value, grid_ready = routed.arguments[index][port]
            live = producer is not None and producer.state is not StationState.EMPTY
            assert (not live or producer.state is StationState.DONE) == grid_ready
            if grid_ready:
                assert processor._operand(producer, reg) == grid_value
