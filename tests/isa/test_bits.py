"""Unit tests for fixed-width integer / IEEE-754 helpers."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.isa import bits


class TestIntWrapping:
    def test_to_uint32_wraps(self):
        assert bits.to_uint32(-1) == 0xFFFFFFFF
        assert bits.to_uint32(2 ** 32) == 0
        assert bits.to_uint32(2 ** 32 + 5) == 5

    def test_to_int32_wraps(self):
        assert bits.to_int32(0x7FFFFFFF) == 2147483647
        assert bits.to_int32(0x80000000) == -2147483648
        assert bits.to_int32(0xFFFFFFFF) == -1
        assert bits.to_int32(2 ** 31) == -(2 ** 31)

    def test_to_int64(self):
        assert bits.to_int64(2 ** 63) == -(2 ** 63)
        assert bits.to_int64(2 ** 63 - 1) == 2 ** 63 - 1

    def test_sign_extend(self):
        assert bits.sign_extend(0xFF, 8) == -1
        assert bits.sign_extend(0x7F, 8) == 127
        assert bits.sign_extend(0x800, 12) == -2048
        assert bits.sign_extend(0x7FF, 12) == 2047

    def test_zero_extend(self):
        assert bits.zero_extend(-1, 8) == 0xFF
        assert bits.zero_extend(0x1FF, 8) == 0xFF

    @given(st.integers(min_value=-2**40, max_value=2**40))
    def test_int32_uint32_consistent(self, value):
        assert bits.to_uint32(bits.to_int32(value)) == bits.to_uint32(value)

    @given(st.integers(min_value=-2**31, max_value=2**31 - 1))
    def test_to_int32_identity_in_range(self, value):
        assert bits.to_int32(value) == value


class TestFloatBits:
    def test_float_roundtrip(self):
        for value in (0.0, 1.0, -2.5, 3.14159, 1e30, -1e-30):
            single = bits.float32_round(value)
            assert bits.bits_to_float(bits.float_to_bits(single)) == single

    def test_double_roundtrip(self):
        assert bits.bits_to_double(bits.double_to_bits(3.141592653589793)) \
            == 3.141592653589793

    def test_float32_round_matches_struct(self):
        value = 1.0 / 3.0
        expected = struct.unpack("<f", struct.pack("<f", value))[0]
        assert bits.float32_round(value) == expected

    def test_float32_round_keeps_specials(self):
        assert math.isnan(bits.float32_round(float("nan")))
        assert bits.float32_round(float("inf")) == float("inf")

    def test_float32_round_overflows_to_infinity(self):
        """Past binary32's range the nearest value is an infinity; just
        above the largest finite value still rounds down to it."""
        largest = struct.unpack("<f", b"\xff\xff\x7f\x7f")[0]
        assert bits.float32_round(largest + 2.0 ** 102) == largest
        assert bits.float32_round(6.2e16 * 5.5e21) == math.inf
        assert bits.float32_round(-1e39) == -math.inf
        assert bits.float32_round(largest * 2) == math.inf

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_bit_roundtrip_property(self, value):
        assert bits.bits_to_float(bits.float_to_bits(value)) == value


class TestConversions:
    def test_fcvt_w_s_truncates_toward_zero(self):
        assert bits.fcvt_w_s(2.7) == 2
        assert bits.fcvt_w_s(-2.7) == -2

    def test_fcvt_w_s_clamps(self):
        assert bits.fcvt_w_s(1e20) == bits.INT32_MAX
        assert bits.fcvt_w_s(-1e20) == bits.INT32_MIN
        assert bits.fcvt_w_s(float("nan")) == bits.INT32_MAX

    def test_fcvt_wu_s(self):
        assert bits.fcvt_wu_s(3.9) == 3
        assert bits.fcvt_wu_s(-1.0) == 0
        assert bits.fcvt_wu_s(1e20) == 0xFFFFFFFF


class TestFclass:
    @pytest.mark.parametrize("value,bit", [
        (float("-inf"), 0),
        (-1.5, 1),
        (-0.0, 3),
        (0.0, 4),
        (1.5, 6),
        (float("inf"), 7),
        (float("nan"), 9),
    ])
    def test_classes(self, value, bit):
        assert bits.fclass(value) == (1 << bit)

    def test_subnormals(self):
        assert bits.fclass(1e-40) == (1 << 5)
        assert bits.fclass(-1e-40) == (1 << 2)


class TestSignInjection:
    def test_fsgnj(self):
        assert bits.copy_sign_bits(3.0, -1.0) == -3.0
        assert bits.copy_sign_bits(-3.0, 1.0) == 3.0

    def test_fsgnjn(self):
        assert bits.copy_sign_bits(3.0, -1.0, flip=True) == 3.0
        assert bits.copy_sign_bits(3.0, 1.0, flip=True) == -3.0

    def test_fsgnjx(self):
        assert bits.copy_sign_bits(-3.0, -1.0, xor=True) == 3.0
        assert bits.copy_sign_bits(-3.0, 1.0, xor=True) == -3.0
