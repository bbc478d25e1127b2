"""Unit tests for fixed-width two's-complement helpers."""

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

    def test_custom_width(self):
        assert to_unsigned(-1, bits=8) == 255
        assert to_unsigned(256, bits=8) == 0


class TestToSigned:
    def test_positive_below_midpoint(self):
        assert to_signed(5) == 5
        assert to_signed((1 << 31) - 1) == (1 << 31) - 1

    def test_negative_above_midpoint(self):
        assert to_signed(WORD_MASK) == -1
        assert to_signed(1 << 31) == -(1 << 31)

    def test_custom_width(self):
        assert to_signed(0x80, bits=8) == -128
        assert to_signed(0x7F, bits=8) == 127

    def test_masks_out_high_bits_first(self):
        assert to_signed((1 << 40) | 3) == 3


class TestSignExtend:
    """Sign extension is the signed view of the narrow field, re-read unsigned."""

    def test_positive_unchanged(self):
        assert to_unsigned(to_signed(0x7FFF, 16)) == 0x7FFF

    def test_negative_extends(self):
        assert to_unsigned(to_signed(0x8000, 16)) == 0xFFFF8000

    def test_roundtrip_with_to_signed(self):
        assert to_signed(to_unsigned(to_signed(0xFFFF, 16))) == -1


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
