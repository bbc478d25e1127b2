"""Fixed-width two's-complement arithmetic helpers.

The reproduced instruction-set architecture is a 32-bit machine (the
paper's empirical layouts use 32 32-bit logical registers).  All register
values are stored as Python ints in ``[0, 2**32)`` and these helpers
convert between the signed and unsigned views.
"""

from __future__ import annotations

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1


def to_unsigned(value: int, bits: int = WORD_BITS) -> int:
    """Reduce *value* into the unsigned ``bits``-wide range ``[0, 2**bits)``."""
    return value & ((1 << bits) - 1)


def to_signed(value: int, bits: int = WORD_BITS) -> int:
    """Interpret the low ``bits`` of *value* as a two's-complement integer."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def tree_level_distance(a: int, b: int) -> int:
    """H-tree levels a signal climbs travelling between leaves *a* and *b*.

    Zero when the leaves coincide; otherwise the height of their lowest
    common ancestor in the 4-way H-tree the layouts use.  This is the
    self-timed forwarding latency metric, the telemetry hop-distance
    metric and the self-timed locality census (experiment E8).
    """
    if a < 0 or b < 0:
        raise ValueError("leaf indices must be non-negative")
    level = 0
    while a != b:
        a //= 4
        b //= 4
        level += 1
    return level
