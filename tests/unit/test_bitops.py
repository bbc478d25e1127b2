"""Unit tests for the 32-bit two's-complement helpers."""

import pytest

from repro.util.bitops import (
    WORD_MASK,
    to_signed,
    to_unsigned,
    tree_level_distance,
)


class TestToUnsigned:
    def test_identity_for_small_positive(self):
        assert to_unsigned(42) == 42

    def test_wraps_negative(self):
        assert to_unsigned(-1) == WORD_MASK

    def test_wraps_overflow(self):
        assert to_unsigned(1 << 32) == 0
        assert to_unsigned((1 << 32) + 5) == 5


class TestToSigned:
    def test_positive_below_midpoint(self):
        assert to_signed(5) == 5
        assert to_signed((1 << 31) - 1) == (1 << 31) - 1

    def test_negative_above_midpoint(self):
        assert to_signed(WORD_MASK) == -1
        assert to_signed(1 << 31) == -(1 << 31)

    def test_masks_out_high_bits_first(self):
        assert to_signed((1 << 40) | 3) == 3


class TestInverses:
    @pytest.mark.parametrize("value", [0, 1, -1, 2**31 - 1, -(2**31), 123456789, -987654321])
    def test_signed_unsigned_roundtrip(self, value):
        assert to_signed(to_unsigned(value)) == value


class TestTreeLevelDistance:
    def test_lca_level(self):
        assert tree_level_distance(0, 0) == 0
        assert tree_level_distance(0, 1) == 1
        assert tree_level_distance(0, 3) == 1
        assert tree_level_distance(0, 4) == 2
        assert tree_level_distance(3, 12) == 2
        assert tree_level_distance(12, 3) == 2

    def test_negative_leaf_rejected(self):
        with pytest.raises(ValueError):
            tree_level_distance(-1, 0)
