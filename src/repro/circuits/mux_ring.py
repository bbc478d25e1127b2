"""The linear-gate-delay multiplexer ring of the paper's Figure 1.

One ring per logical register: each station's multiplexer either inserts
its own (value, ready) pair — when its *modified* bit is set — or passes
along its predecessor's output.  The netlist is genuinely cyclic (a
combinational loop); the loop is logically cut wherever a modified bit
is set, and the oldest station always sets all of its modified bits, so
the event-driven simulator reaches the unique fixed point.  Settle time
grows as Θ(n), which is exactly the scalability problem the CSPP tree
(:class:`repro.circuits.cspp.CsppTree`) solves.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.netlist import Net, Netlist, SimulationResult, assign_bus, bus_value


class MuxRing:
    """A cyclic ring of multiplexers over *n* stations, payload *width* bits.

    Station *i*'s output is ``modified[i] ? value[i] : output[i-1]``
    (indices mod *n*).  The value *received* by station *i* — what its
    register file latches — is the output of station *i-1*, i.e. the
    nearest preceding writer's value.
    """

    def __init__(self, n: int, width: int = 1):
        if n < 1:
            raise ValueError("need at least one station")
        self.n = n
        self.width = width
        self.netlist = Netlist(name=f"muxring(n={n})")
        nl = self.netlist
        self.values: list[list[Net]] = [
            [nl.add_input(f"muxring_x{i}[{b}]") for b in range(width)] for i in range(n)
        ]
        self.modified: list[Net] = [nl.add_input(f"muxring_m{i}") for i in range(n)]

        # The ring is a combinational loop, but a MUX needs its inputs when
        # it is built: each mux first reads a placeholder for its
        # predecessor's output, tied to that output once every mux exists.
        feedback = [[nl.add_input(f"muxring_fb{i}[{b}]") for b in range(width)] for i in range(n)]
        self.ring_out: list[list[Net]] = [
            [nl.mux(self.modified[i], x, fb, name=f"muxring_out{i}[{b}]")
             for b, (x, fb) in enumerate(zip(self.values[i], feedback[i]))]
            for i in range(n)
        ]
        for i in range(n):
            for b in range(width):
                nl.tie(feedback[i][b], self.ring_out[(i - 1) % n][b])
                nl.mark_output(f"muxring_y{i}[{b}]", self.ring_out[i][b])

    @property
    def gate_count(self) -> int:
        """Number of gates (one mux per station per bit)."""
        return self.netlist.gate_count

    def simulate(self, xs: Sequence[int], modified: Sequence[bool]) -> SimulationResult:
        """Run the event-driven simulator; requires >= 1 modified bit."""
        if len(xs) != self.n or len(modified) != self.n:
            raise ValueError(f"expected {self.n} inputs")
        if not any(modified):
            raise ValueError("mux ring requires at least one modified bit to settle")
        assignment: dict[Net, bool] = {}
        for i in range(self.n):
            assign_bus(assignment, self.values[i], xs[i])
            assignment[self.modified[i]] = bool(modified[i])
        return self.netlist.simulate(assignment)

    def evaluate(self, xs: Sequence[int], modified: Sequence[bool]) -> list[int]:
        """Settled *incoming* value at each station (previous station's output)."""
        result = self.simulate(xs, modified)
        return [bus_value(result, self.ring_out[(i - 1) % self.n]) for i in range(self.n)]

    def settle_time(self, xs: Sequence[int], modified: Sequence[bool]) -> int:
        """Settle time in gate delays for the given inputs."""
        return self.simulate(xs, modified).settle_time
