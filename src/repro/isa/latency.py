"""Functional-unit latencies.

The paper's Figure 3 timing diagram "assume[s] that division takes 10
clock cycles, multiplication 3, and addition 1"; every other class takes
one cycle too.  Load latency is the *execution* latency on a cache hit —
cache misses add time through :mod:`repro.memory`.
"""

from __future__ import annotations

from repro.isa.opcodes import Opcode, OpClass

_CLASS_CYCLES = {OpClass.MUL: 3, OpClass.DIV: 10}

#: Figure 3's cycles per :attr:`Opcode.code <repro.isa.opcodes.Opcode>`:
#: the engines index it per instruction by a decoded row's int ``code``
#: (an int key, where an enum member would cost a pure-Python
#: ``__hash__`` call)
PAPER_LATENCIES: tuple[int, ...] = tuple(_CLASS_CYCLES.get(op.op_class, 1) for op in Opcode)
