"""Fixed-width integer and IEEE-754 helpers.

The simulator stores register values as 64-bit raw patterns (Sec. III-B:
"Registers are represented as 64-bit arrays, even though the simulator
currently supports only 32-bit instructions") and interprets them according
to the executing instruction.  These helpers provide the wrap/extend/cast
primitives used throughout the expression interpreter, the assembler and the
memory system.
"""

from __future__ import annotations

import math
import struct

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def to_uint32(value: int) -> int:
    """Wrap *value* into an unsigned 32-bit integer."""
    return value & MASK32


def to_int32(value: int) -> int:
    """Wrap *value* into a signed (two's complement) 32-bit integer."""
    value &= MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


def to_uint64(value: int) -> int:
    """Wrap *value* into an unsigned 64-bit integer."""
    return value & MASK64


def to_int64(value: int) -> int:
    """Wrap *value* into a signed 64-bit integer."""
    value &= MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low *bits* of *value* to a Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def zero_extend(value: int, bits: int) -> int:
    """Zero-extend the low *bits* of *value*."""
    return value & ((1 << bits) - 1)


def float_to_bits(value: float) -> int:
    """Raw IEEE-754 binary32 pattern of *value* (rounded to single)."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_float(bits: int) -> float:
    """Reinterpret a 32-bit pattern as an IEEE-754 binary32 value."""
    return struct.unpack("<f", struct.pack("<I", bits & MASK32))[0]


def double_to_bits(value: float) -> int:
    """Raw IEEE-754 binary64 pattern of *value*."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_double(bits: int) -> float:
    """Reinterpret a 64-bit pattern as an IEEE-754 binary64 value."""
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def float32_round(value: float) -> float:
    """Round a Python float to the nearest representable binary32 value.

    All F-extension arithmetic goes through this so results match a real
    single-precision FPU instead of silently keeping double precision.
    """
    if math.isnan(value) or math.isinf(value):
        return value
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        # rounds past the largest binary32: an infinity, as on an FPU
        return math.copysign(math.inf, value)


def fcvt_w_s(value: float) -> int:
    """``fcvt.w.s`` semantics: truncate toward zero, clamp, NaN -> INT32_MAX."""
    if math.isnan(value):
        return INT32_MAX
    if value >= INT32_MAX:
        return INT32_MAX
    if value <= INT32_MIN:
        return INT32_MIN
    return int(value)


def fcvt_wu_s(value: float) -> int:
    """``fcvt.wu.s`` semantics: truncate toward zero, clamp to [0, 2^32-1]."""
    if math.isnan(value):
        return MASK32
    if value >= MASK32:
        return MASK32
    if value <= 0:
        return 0
    return int(value)


def fclass(value: float) -> int:
    """RISC-V ``fclass.s`` 10-bit classification mask."""
    if math.isnan(value):
        # Distinguishing signaling/quiet NaN is not possible from a Python
        # float; report quiet NaN.
        return 1 << 9
    if math.isinf(value):
        return (1 << 0) if value < 0 else (1 << 7)
    if value == 0.0:
        return (1 << 3) if math.copysign(1.0, value) < 0 else (1 << 4)
    tiny = abs(value) < 2.0 ** -126
    if value < 0:
        return (1 << 2) if tiny else (1 << 1)
    return (1 << 5) if tiny else (1 << 6)


def copy_sign_bits(magnitude: float, sign_source: float, flip: bool = False, xor: bool = False) -> float:
    """Implements ``fsgnj`` / ``fsgnjn`` / ``fsgnjx`` on binary32 values."""
    mbits = float_to_bits(magnitude)
    sbits = float_to_bits(sign_source)
    if xor:
        sign = (mbits ^ sbits) & 0x80000000
    else:
        sign = sbits & 0x80000000
        if flip:
            sign ^= 0x80000000
    return bits_to_float((mbits & 0x7FFFFFFF) | sign)
