"""Deterministic random-number generation for experiments and tests.

:class:`Pcg64` is NumPy's ``default_rng`` stream, reimplemented in pure
Python draw for draw: ``SeedSequence`` seeding, the PCG64 generator
(O'Neill's 128-bit LCG with the XSL-RR output), and the two methods the
package draws with.  ``tests/unit/test_rng.py`` compares it with NumPy.
"""

from __future__ import annotations

import hashlib

DEFAULT_SEED = 0x5CA1AB1E

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """The stream of ``numpy.random.default_rng(seed)``, for two methods."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_sequence_state(seed)
        self._inc = (i0 << 64 | i1) << 1 & _MASK128 | 1
        state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        #: the unused high half of the last 64-bit output (NumPy's has_uint32)
        self._half: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        word = ((state >> 64) ^ state) & _MASK64
        return (word >> rot | word << (64 - rot)) & _MASK64

    def random(self) -> float:
        """A double in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high): Lemire's rejection on 32-bit draws.

        A 32-bit draw is the low half of a 64-bit output, and the next
        one its high half.  A span of 2**32 keeps every draw (its
        threshold is 0), and a span of 1 draws nothing, as in NumPy.
        """
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(f"need 0 < high - low <= 2**32, got {low}..{high}")
        if span == 1:
            return low
        while True:
            draw = self._half
            if draw is None:
                word = self._next64()
                self._half = word >> 32
                draw = word & _MASK32
            else:
                self._half = None
            product = draw * span
            leftover = product & _MASK32
            if leftover >= span or leftover >= (1 << 32) % span:
                return low + (product >> 32)


def make_rng(seed: int | None = None) -> Pcg64:
    """Return a :class:`Pcg64` seeded deterministically.

    ``None`` selects the project-wide default seed (*not* entropy), so two
    calls with no argument always produce identical streams; experiments
    stay reproducible without threading a seed through every call site.
    """
    return Pcg64(DEFAULT_SEED if seed is None else seed)


def derive_seed(*components: object) -> int:
    """Fold *components* into a stable 63-bit seed.

    Hash-based (SHA-256 over the reprs), so the result is identical
    across processes and Python versions — the property the fuzz shards
    rely on: the same seed always yields the same cases, in whichever
    worker process a shard runs.
    """
    digest = hashlib.sha256(
        "\x1f".join(repr(component) for component in components).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1
