"""Bit-true model of the integer-path processing element.

Every operand (int / pot / flint code) is decoded to a (base integer,
exponent) pair; the multiplier forms base_a * base_b shifted left by the
exponent sum, and the accumulator adds it up.  A dot product over codes,
scaled once at the end, therefore equals the real dot product of the
dequantized operands exactly, as long as nothing overflows the datapath.

The 8-bit int multiply is composed from four 4-bit PE multiplies plus one
adder, mirroring the mixed-precision array reconfiguration.

``mac_step``, ``mul8_via_four`` and the (base, exponent) fields they take
accept Python ints or numpy int64 arrays.  Arrays are elementwise and
broadcast: each element is one independent MAC lane, and
``MacState.accumulator`` and ``.overflowed`` become per-lane arrays
(``strict`` raises if any lane overflows).  Python ints are
arbitrary-precision at every width, ``wrap`` at width 64 included.  Array
lanes compute in int64, so every product, shifted product and running sum
must stay within the int64 range (magnitude below 2^63).  Beyond that bound
numpy wraps the lane modulo 2^64 with no flag and no error, so the lane's
result is wrong; use Python ints for wider datapaths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flint
from .qtypes import NumericType, QuantizationError


class DatapathError(ArithmeticError):
    """Product or accumulator exceeded the configured width under policy=strict."""


@dataclass(frozen=True)
class MacState:
    accumulator: int | np.ndarray = 0
    acc_width: int = 32
    product_width: int = 16
    policy: str = "widen"  # widen | saturate | wrap | strict
    overflowed: bool | np.ndarray = False


def _any(flags) -> bool:
    """True if any lane is set; plain ``bool`` scalars skip the numpy call."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else flags


def decode_operand(code: int, ntype: NumericType) -> flint.DecodedPair:
    """Decode one code word of any integer-path primitive type to (base, exp)."""
    b = ntype.width
    if not 0 <= code < (1 << b):
        raise QuantizationError(f"code {code} does not fit {b} bits")
    if ntype.kind == "int":
        if ntype.signed and code >= (1 << (b - 1)):
            return flint.DecodedPair(code - (1 << b), 0)
        return flint.DecodedPair(code, 0)
    if ntype.kind == "pot":
        mag_width = b - 1 if ntype.signed else b
        sign = -1 if ntype.signed and code >> mag_width else 1
        k = code & ((1 << mag_width) - 1)
        if k == 0:
            return flint.DecodedPair(0, 0)
        return flint.DecodedPair(sign, k - 1)
    if ntype.kind == "flint":
        return flint.decode_int(flint.FlintCode(code, b, ntype.signed))
    raise QuantizationError(f"type {ntype.kind} has no integer-path decoder")


def _clamp(value, width: int, policy: str):
    """Fit ``value`` to a signed ``width``; returns (value, per-lane overflow flags)."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    over = (value < lo) | (value > hi)
    if not _any(over):
        return value, over
    if policy == "strict":
        first = value[over].flat[0] if isinstance(value, np.ndarray) else value
        raise DatapathError(f"value {first} exceeds {width}-bit signed range")
    if policy == "saturate":
        if isinstance(value, np.ndarray):
            return np.clip(value, lo, hi), over
        return (hi if value > hi else lo), over
    if policy == "wrap":
        # Masking is the two's-complement wrap for Python ints and int64 lanes
        # alike; an int64 lane is never out of range at width 64.
        return ((value - lo) & ((1 << width) - 1)) + lo, over
    return value, over  # widen: keep exact, flag


def mac_step(state: MacState, a: flint.DecodedPair, b: flint.DecodedPair) -> MacState:
    """One multiply-accumulate: acc += (a.base * b.base) << (a.exp + b.exp)."""
    product = (a.base * b.base) << (a.exponent + b.exponent)
    product, p_over = _clamp(product, state.product_width, state.policy)
    acc, a_over = _clamp(state.accumulator + product, state.acc_width, state.policy)
    return MacState(acc, state.acc_width, state.product_width, state.policy,
                    state.overflowed | p_over | a_over)


def _split_nibbles(x, signed: bool) -> tuple[flint.DecodedPair, flint.DecodedPair]:
    lo, hi = (-128, 127) if signed else (0, 255)
    bad = (x < lo) | (x > hi)
    if _any(bad):
        first = x[bad].flat[0] if isinstance(x, np.ndarray) else x
        raise QuantizationError(f"{first} outside the 8-bit {'signed' if signed else 'unsigned'} range")
    # In range, the arithmetic shift leaves the top nibble, which carries the
    # sign when signed.
    return flint.DecodedPair(x >> 4, 4), flint.DecodedPair(x & 0xF, 0)


def mul8_via_four(a, b, signed: bool = True):
    """8-bit int multiply out of four 4-bit PE multiplies and one adder."""
    a_hi, a_lo = _split_nibbles(a, signed)
    b_hi, b_lo = _split_nibbles(b, signed)
    fresh = MacState(acc_width=32, product_width=16, policy="widen")
    partials = [
        mac_step(fresh, x, y).accumulator
        for x, y in ((a_hi, b_hi), (a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo))
    ]
    return sum(partials)  # the extra adder tree
