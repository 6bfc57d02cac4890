"""Bit-true model of the integer-path processing element.

Every operand (int / pot / flint / float code) is decoded to a (base
integer, exponent) pair, read from ``NumericType.decoded()``; the multiplier
forms base_a * base_b shifted left by the exponent sum, and the accumulator
adds it up.  A dot product over codes, scaled once at the end, therefore
equals the real dot product of the dequantized operands exactly.  A float
operand's pair is its value times ``2**exponent_offset`` (its mantissa
width M), so the end scale also absorbs ``2**-(offset_a + offset_b)``.  The
model always keeps that exact value and flags, in ``MacState.overflowed``,
any product or running sum that a datapath of the state's widths could not
hold.

The 8-bit int multiply is composed from four 4-bit PE multiplies plus one
adder, mirroring the mixed-precision array reconfiguration.

``mac_step``, ``mul8_via_four`` and the (base, exponent) fields they take
accept Python ints or numpy int64 arrays.  Arrays are elementwise and
broadcast: each element is one independent MAC lane, and
``MacState.accumulator`` and ``.overflowed`` become per-lane arrays.
Python ints are arbitrary-precision.  Array lanes compute in int64, so
every product, shifted product and running sum must stay within the int64
range (magnitude below 2^63).  Beyond that bound numpy wraps the lane
modulo 2^64 with no flag and no error, so the lane's result is wrong; use
Python ints for wider values.  Float operands come nearest that bound: at
most base 3 and exponent 2 for float4 e2m1, 15 and 14 for float8 e4m3, and
7 and 30 for float8 e5m2, so one e5m2 x e5m2 product is 49 * 2^60, past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qtypes import DecodedPair, QuantizationError


@dataclass(frozen=True)
class MacState:
    accumulator: int | np.ndarray = 0
    acc_width: int = 32
    product_width: int = 16
    overflowed: bool | np.ndarray = False


def _exceeds(value, width: int):
    """Per-lane flags: ``value`` lies outside the signed ``width``-bit range."""
    return (value < -(1 << (width - 1))) | (value > (1 << (width - 1)) - 1)


def mac_step(state: MacState, a: DecodedPair, b: DecodedPair) -> MacState:
    """One multiply-accumulate: acc += (a.base * b.base) << (a.exp + b.exp).

    The accumulator stays exact; ``overflowed`` is set once the product
    exceeds ``product_width`` or the sum exceeds ``acc_width``.
    """
    product = (a.base * b.base) << (a.exponent + b.exponent)
    acc = state.accumulator + product
    over = _exceeds(product, state.product_width) | _exceeds(acc, state.acc_width)
    return MacState(acc, state.acc_width, state.product_width, state.overflowed | over)


def _split_nibbles(x, signed: bool) -> tuple[DecodedPair, DecodedPair]:
    lo, hi = (-128, 127) if signed else (0, 255)
    bad = (x < lo) | (x > hi)
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        first = np.extract(bad, x)[0]
        raise QuantizationError(f"{first} outside the 8-bit {'signed' if signed else 'unsigned'} range")
    # In range, the arithmetic shift leaves the top nibble, which carries the
    # sign when signed.
    return DecodedPair(x >> 4, 4), DecodedPair(x & 0xF, 0)


def mul8_via_four(a, b, signed: bool = True):
    """8-bit int multiply out of four 4-bit PE multiplies and one adder."""
    a_hi, a_lo = _split_nibbles(a, signed)
    b_hi, b_lo = _split_nibbles(b, signed)
    fresh = MacState(acc_width=32, product_width=16)
    partials = [
        mac_step(fresh, x, y).accumulator
        for x, y in ((a_hi, b_hi), (a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo))
    ]
    return sum(partials)  # the extra adder tree
