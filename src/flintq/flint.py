"""Bit-exact flint codec.

flint is a fixed-length numeric type that uses first-one encoding: the
position of the first 1 after the MSB (or sign bit) marks the boundary
between the exponent and mantissa fields.  Mid-range values get the most
mantissa bits; extreme values trade mantissa for range.

The layout is written once, as the flint table of ``NumericType.decoded()``
in :mod:`flintq.qtypes`.  The scalar entry points read that type's tables:

* ``decode_int`` -- the code's row of the table: the (base integer, even
  exponent) pair the integer MAC datapath consumes.
* ``encode``     -- the code ``qtypes.quantize`` writes for one value.

``decode_float`` decodes to exponent/fraction form, as a float-style
decoder built around a leading-zero detector would, without reading
``qtypes``; ``flintq verify`` checks it against ``code_values()`` on every
code of widths 3-8.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import qtypes
from .qtypes import MAX_WIDTH, MIN_WIDTH, DecodedPair


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


@functools.cache
def _tables(b: int, signed: bool) -> tuple[list[int], list[int], list[float], list[int]]:
    """The bases, exponents, thresholds and cell codes of the b-bit flint
    type, as ``qtypes`` holds them, in lists: one element is read faster
    from a list, and found faster by ``bisect``, than from numpy."""
    t = qtypes.NumericType("flint", b, signed)
    pair = t.decoded()
    return (pair.base.tolist(), pair.exponent.tolist(),
            t.thresholds().tolist(), qtypes._cell_codes(t).tolist())


def encode(e: float, b: int, s: float = 1.0, signed: bool = False) -> FlintCode:
    """Quantize a real value to a flint code: the code ``qtypes.quantize``
    gives ``e`` at scale ``s``, read from the same tables.

    ``e / s`` takes its nearest grid value, ties away from zero: beyond the
    grid's ends the end value, so an unsigned type takes a negative value to 0.
    A scale that is not finite and positive raises FlintDomainError, as
    ``QuantScheme`` rejects it.
    """
    if not (math.isfinite(s) and s > 0):
        raise FlintDomainError(f"scale must be finite and positive, got {s}")
    if not MIN_WIDTH <= b <= MAX_WIDTH:
        raise FlintDomainError(f"flint width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {b}")
    if not math.isfinite(e):
        raise FlintDomainError(f"cannot encode the non-finite value {e}")
    u = e / s  # an overflow to infinity lands on an end cell, as in quantize
    _, _, thresholds, codes = _tables(b, signed)
    return FlintCode(codes[bisect.bisect_right(thresholds, u)], b, signed)


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


def decode_int(c: FlintCode) -> DecodedPair:
    """Integer-path decode to a (base, exponent) pair with base * 2**exp the
    value: the code's row of ``NumericType("flint", ...).decoded()``."""
    base, exponent, _, _ = _tables(c.width, c.signed)
    return DecodedPair(base[c.bits], exponent[c.bits])
