"""Bit-exact flint codec.

flint is a fixed-length numeric type that uses first-one encoding: the
position of the first 1 after the MSB (or sign bit) marks the boundary
between the exponent and mantissa fields.  Mid-range values get the most
mantissa bits; extreme values trade mantissa for range.

Two decode paths are provided and must agree on every code:

* ``decode_float`` -- exponent/fraction form, as a float-style decoder
  built around a leading-zero detector would produce it.
* ``decode_int``   -- (base integer, even exponent) form, as consumed by
  the integer MAC datapath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MIN_WIDTH = 3
MAX_WIDTH = 8


class FlintDomainError(ValueError):
    """Input outside the domain a flint operation is defined on."""


@dataclass(frozen=True)
class FlintCode:
    """A flint bit pattern, LSB-aligned in ``bits``."""

    bits: int
    width: int
    signed: bool = False

    def __post_init__(self):
        if not MIN_WIDTH <= self.width <= MAX_WIDTH:
            raise FlintDomainError(f"flint width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise FlintDomainError(f"code 0b{self.bits:b} does not fit in {self.width} bits")


@dataclass(frozen=True)
class DecodedPair:
    """Integer-path decode result: value = base * 2**exponent.  The fields
    are ints, or int64 arrays holding one pair per code or MAC lane."""

    base: int | np.ndarray
    exponent: int | np.ndarray

    @property
    def value(self) -> int:
        return self.base << self.exponent


@dataclass(frozen=True)
class FloatFields:
    """Float-path decode result: value = 2**exponent_value * fraction_value."""

    exponent_value: int
    fraction_value: Fraction

    @property
    def value(self) -> Fraction:
        if self.fraction_value == 0:
            return Fraction(0)
        return Fraction(2) ** self.exponent_value * self.fraction_value


def _lzd(field: int, width: int) -> int:
    """Leading-zero count of a ``width``-bit field."""
    if field == 0:
        return width
    return width - field.bit_length()


def interval_index(e: int, b: int) -> int:
    """Value-interval index i = floor(log2(e)) + 1 for an integer magnitude."""
    if e < 1 or e > (1 << (2 * b - 2)):
        raise FlintDomainError(f"magnitude {e} outside [1, 2^{2 * b - 2}] for width {b}")
    return int(e).bit_length()  # floor(log2 e) + 1 for e >= 1


def exponent_code(b: int, i: int) -> str:
    """First-one exponent code (as a bit string) for interval i of a b-bit flint.

    The mantissa width for the interval is ``b - len(code)``.
    """
    if not 1 <= i <= 2 * b - 1:
        raise FlintDomainError(f"interval index {i} outside [1, {2 * b - 1}] for width {b}")
    if i <= b - 1:
        return "0" * (b - i) + "1"
    if i == b:
        return "11"
    if i <= 2 * b - 2:
        return "1" + "0" * (i - b) + "1"
    return "1" + "0" * (b - 1)  # i == 2b - 1, the top interval


def mantissa_width(b: int, i: int) -> int:
    return b - len(exponent_code(b, i))


def round_half_away(x):
    """Round half away from zero: floor(|x| + 0.5) with the sign of x.

    Takes a float or a numpy array (element-wise); ``encode`` rounds with
    it, and so do the int and flint quantizers and the threshold tables.
    An array is rounded within one new array: each fresh temporary of a
    large array costs page faults that take longer than the arithmetic.
    """
    r = np.abs(x)
    if type(r) is not np.ndarray:
        return np.sign(x) * np.floor(r + 0.5)
    r += 0.5
    np.floor(r, out=r)
    return np.copysign(r, x, out=r)


def _encode_magnitude(q: int, b: int) -> int:
    """Encode an already-quantized integer magnitude q in [0, 2^(2b-2)]."""
    if q == 0:
        return 0
    i = interval_index(q, b)
    mb = mantissa_width(b, i)
    m = int(round_half_away((q / (1 << (i - 1)) - 1.0) * (1 << mb)))
    if m == (1 << mb):
        # Mantissa rounding overflowed the interval: carry into the next one.
        i += 1
        mb = mantissa_width(b, i)
        m = 0
    prefix = int(exponent_code(b, i), 2)
    return (prefix << mb) | m


def encode(e: float, b: int, s: float = 1.0, signed: bool = False) -> FlintCode:
    """Quantize a real value to a flint code (element-wise encoding).

    The value is integer-quantized by the scale ``s`` (round half away from
    zero), the magnitude clamped to the representable range, then split into
    a first-one exponent field and a rounded mantissa.
    """
    if s <= 0:
        raise FlintDomainError(f"scale must be positive, got {s}")
    mag_width = b - 1 if signed else b
    if mag_width < MIN_WIDTH - 1:
        raise FlintDomainError(f"signed flint needs width >= {MIN_WIDTH + 1}, got {b}")
    q = int(round_half_away(e / s))
    if not signed and q < 0:
        q = 0
    neg = q < 0
    q = min(abs(q), 1 << (2 * mag_width - 2))
    code = _encode_magnitude(q, mag_width)
    if signed and neg and code != 0:
        code |= 1 << (b - 1)
    return FlintCode(code, b, signed)


def _decode_float_magnitude(bits: int, b: int) -> FloatFields:
    if bits == 0:
        return FloatFields(0, Fraction(0))
    msb = bits >> (b - 1)
    low = bits & ((1 << (b - 1)) - 1)
    lzd = _lzd(low, b - 1)
    if msb == 0:
        exp = (b - 1) - lzd
    else:
        exp = b + lzd
    # Shift the leading 1 out of the low field, keep b-1 fraction bits.
    mant = (low << (lzd + 1)) & ((1 << (b - 1)) - 1)
    frac = Fraction(1) + Fraction(mant, 1 << (b - 1))
    return FloatFields(exp - 1, frac)  # exponent bias -1


def decode_float(c: FlintCode) -> FloatFields:
    """Float-path decode to (exponent value, fraction value).

    Signed codes return a negated fraction for a set sign bit.
    """
    if not c.signed:
        return _decode_float_magnitude(c.bits, c.width)
    sign = c.bits >> (c.width - 1)
    fields = _decode_float_magnitude(c.bits & ((1 << (c.width - 1)) - 1), c.width - 1)
    if sign:
        return FloatFields(fields.exponent_value, -fields.fraction_value)
    return fields


def _decode_int_magnitude(bits: int, b: int) -> DecodedPair:
    msb = bits >> (b - 1)
    low = bits & ((1 << (b - 1)) - 1)
    if msb == 0:
        return DecodedPair(low, 0)
    if low == 0:
        return DecodedPair(1, 2 * (b - 1))
    return DecodedPair(low << 1, 2 * _lzd(low, b - 1))


def decode_int(c: FlintCode) -> DecodedPair:
    """Integer-path decode to a (base, exponent) pair with base * 2**exp the value."""
    if not c.signed:
        return _decode_int_magnitude(c.bits, c.width)
    sign = c.bits >> (c.width - 1)
    pair = _decode_int_magnitude(c.bits & ((1 << (c.width - 1)) - 1), c.width - 1)
    if sign:
        return DecodedPair(-pair.base, pair.exponent)
    return pair


def decode_value(c: FlintCode) -> int:
    """Exact decoded value via the integer path."""
    return decode_int(c).value


def all_codes(b: int, signed: bool = False):
    """Every well-formed code of the given width/signedness."""
    return [FlintCode(bits, b, signed) for bits in range(1 << b)]


def enumerate_values(b: int, signed: bool = False) -> list[int]:
    """Strictly increasing list of representable values (signed: +/-0 collapsed)."""
    return sorted({decode_value(c) for c in all_codes(b, signed)})
