"""The ``argparse`` types the ``repro``, ``repro verify`` and ``repro bench``
parsers share.

A count or a duration out of range is a usage error: argparse prints
the message and the command exits with status 2 before any job starts,
as it does for a malformed ``--seeds`` or ``--sizes``.
"""

from __future__ import annotations

import argparse
from typing import Callable


def int_at_least(minimum: int) -> Callable[[str], int]:
    """An ``int`` type that rejects values below *minimum*."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def positive_seconds(text: str) -> float:
    """A duration in seconds; it must be greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {text}")
    return value
