"""Functional-unit latency configuration.

The paper's Figure 3 timing diagram "assume[s] that division takes 10
clock cycles, multiplication 3, and addition 1"; those are the defaults
here.  Load latency is the *execution* latency on a cache hit — cache
misses add time through :mod:`repro.memory`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import Opcode


@dataclass(frozen=True)
class LatencyModel:
    """Cycles each functional class occupies before its result is ready."""

    alu: int = 1
    mul: int = 3
    div: int = 10
    load: int = 1
    store: int = 1
    branch: int = 1
    jump: int = 1
    system: int = 1

    def __post_init__(self) -> None:
        for name in ("alu", "mul", "div", "load", "store", "branch", "jump", "system"):
            if getattr(self, name) < 1:
                raise ValueError(f"latency {name} must be >= 1")
        # cycles per Opcode.code, built once: the engines index it per
        # instruction by a decoded row's int ``code`` (an int key, where an
        # enum member would cost a pure-Python ``__hash__`` call)
        by_code = [0] * 64
        for op in Opcode:
            by_code[op.code] = getattr(self, op.op_class.value)
        object.__setattr__(self, "by_code", tuple(by_code))


#: Latencies used by the paper's Figure 3 timing diagram.
PAPER_LATENCIES = LatencyModel(alu=1, mul=3, div=10)

#: All-unit latencies, useful for isolating scheduling effects in tests.
UNIT_LATENCIES = LatencyModel(alu=1, mul=1, div=1, load=1, store=1, branch=1, jump=1, system=1)
