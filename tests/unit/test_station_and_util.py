"""Unit tests for the Station dataclass and the util helpers."""

import pytest

from repro.isa import Instruction, Opcode, Program
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

    def test_clear_resets_everything(self):
        station = filled(seq=1, cycle=1)
        station.result = 9
        station.committed = True
        station.clear()
        assert station.state is StationState.EMPTY
        assert station.result is None
        assert not station.committed
        assert station.seq == -1
        assert station.static_index == -1
        assert station.decoded is None

    def test_no_write_register_for_nop(self):
        assert filled(Opcode.NOP).decoded.dest is None

    def test_done_property(self):
        # freeing a DONE station drops its result and its dataflow links
        producer = filled(seq=0)
        station = filled(seq=1)
        station.producers = (producer,)
        station.prev_writer = producer
        station.consumers.append(filled(seq=2))
        station.state = StationState.DONE
        station.result = 9
        station.ready_cycle = 4
        station.clear()
        assert station.state is StationState.EMPTY
        assert station.result is None
        assert station.producers == () and station.consumers == []
        assert station.prev_writer is None and station.ready_cycle == 0


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
