"""Shared utilities: deterministic RNG handling, bit operations, tables,
and the ``argparse`` types the command lines share.

Everything in the repository that needs randomness goes through
:func:`repro.util.rng.make_rng` so that experiments and tests are
reproducible from a single seed.  Its stream is NumPy's
``default_rng`` (PCG64), reimplemented in pure Python.
"""

from repro.util.bitops import (
    WORD_BITS,
    WORD_MASK,
    to_signed,
    to_unsigned,
)
from repro.util.tables import Table, format_float, format_ratio

__all__ = [
    "WORD_BITS",
    "WORD_MASK",
    "to_signed",
    "to_unsigned",
    "Table",
    "format_float",
    "format_ratio",
]
