"""Unit tests for the Station dataclass and the util helpers."""

import pytest

from repro.api import ProcessorConfig, build_processor
from repro.frontend.branch_predictor import AlwaysNotTaken
from repro.isa import Instruction, Opcode, Program, assemble
from repro.ultrascalar.station import Station, StationState
from repro.util.rng import make_rng
from repro.util.tables import Table, format_float, format_ratio


def filled(op=Opcode.ADD, seq=0, cycle=0):
    """A WAITING station holding *op* as instruction 0 of a one-line program."""
    if op is Opcode.ADD:
        inst = Instruction(op, rd=1, rs1=2, rs2=3)
    else:
        inst = Instruction(op)
    decoded = Program.from_instructions([inst]).decoded[0]
    return Station(
        3, static_index=0, state=StationState.WAITING, seq=seq, fetch_cycle=cycle, decoded=decoded
    )


class TestStation:
    def test_starts_empty(self):
        station = Station(0)
        assert station.state is StationState.EMPTY
        assert station.decoded is None

    def test_filled_station_writes_decoded_dest(self):
        station = filled(seq=7, cycle=5)
        assert station.state is StationState.WAITING
        assert station.seq == 7
        assert station.fetch_cycle == 5
        assert station.decoded.dest == 1

    def test_no_write_register_for_nop(self):
        assert filled(Opcode.NOP).decoded.dest is None

    def test_done_property(self):
        # after a run no freed station, committed or squashed, holds a
        # link to an older station, so none keeps its predecessors alive
        seen = {}

        def watch(engine):
            for station in engine.stations:
                seen[id(station)] = station

        program = assemble(
            """
            li   r2, 100
            div  r1, r2, r2
            beq  r0, r0, skip
            add  r3, r1, r2
            add  r2, r3, r1
        skip:
            add  r4, r1, r2
            add  r2, r4, r1
            halt
            """
        )
        config = ProcessorConfig(window_size=4, fetch_width=4)
        result = build_processor("us1", config).run(
            program, predictor=AlwaysNotTaken(), cycle_hook=watch
        )
        assert result.mispredictions == 1 and result.squashed > 0
        freed = [s for s in seen.values() if s.state is StationState.EMPTY and s.seq >= 0]
        assert sum(1 for s in freed if s.decoded.sources) >= 4
        assert all(s.producers == () and s.prev_writer is None for s in freed)


class TestRng:
    def test_default_seed_is_deterministic(self):
        assert make_rng().integers(0, 1000) == make_rng().integers(0, 1000)

    def test_explicit_seed(self):
        a, b = make_rng(42), make_rng(42)
        assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]

    def test_different_seeds_differ(self):
        assert make_rng(1).integers(0, 1 << 30) != make_rng(2).integers(0, 1 << 30)


class TestTables:
    def test_basic_render(self):
        table = Table(["a", "b"], title="t")
        table.add_row([1, 2])
        text = table.render()
        assert "t" in text and "a" in text and "1" in text

    def test_first_column_left_rest_right(self):
        table = Table(["name", "value"])
        table.add_row(["x", 1])
        table.add_row(["longer", 22])
        lines = table.render().splitlines()
        assert lines[-1].startswith("longer")
        assert lines[-1].rstrip().endswith("22")

    def test_row_width_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_floats_formatted(self):
        table = Table(["a"])
        table.add_row([3.14159])
        assert "3.14" in table.render()

    def test_format_float_ranges(self):
        assert format_float(0) == "0"
        assert "e" in format_float(1.5e12)
        assert "e" in format_float(1.5e-7)
        assert format_float(12.5) == "12.5"

    def test_format_ratio(self):
        assert format_ratio(11.45) == "11.4x"
