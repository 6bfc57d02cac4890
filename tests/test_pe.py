import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flintq import pe
from flintq.flint import DecodedPair
from flintq.qtypes import KINDS, NumericType, QuantizationError

TYPES4 = {
    "int": NumericType("int", 4, signed=True),
    "pot": NumericType("pot", 4, signed=True),
    "flint": NumericType("flint", 4, signed=True),
}
WIDE = pe.MacState(acc_width=64, product_width=64)


def code_value(code, ntype):
    return float(ntype.code_values()[code])


def decode(code, ntype):
    """One code's (base, exponent) pair from the type's table, as Python ints."""
    pair = ntype.decoded()
    return DecodedPair(int(pair.base[code]), int(pair.exponent[code]))


# ---------------------------------------------------------------------------
# NumericType.decoded(): the operand decode table
# ---------------------------------------------------------------------------

def test_decode_int_codes():
    t = TYPES4["int"]
    assert decode(3, t) == DecodedPair(3, 0)
    assert decode(0b1101, t) == DecodedPair(-3, 0)


def test_decode_pot_codes():
    t = TYPES4["pot"]
    assert decode(0, t) == DecodedPair(0, 0)
    assert decode(0b1000, t) == DecodedPair(0, 0)  # sign bit over a zero magnitude
    assert decode(0b0011, t) == DecodedPair(1, 2)   # +4
    assert decode(0b1011, t) == DecodedPair(-1, 2)  # -4


def test_decode_flint_codes():
    t = TYPES4["flint"]
    assert decode(0b0111, t).value == 6
    assert decode(0b1111, t).value == -6


def test_decode_float_codes():
    t = NumericType("float", 4, signed=True)  # e2m1: values are base * 2**(exponent - 1)
    assert t.exponent_offset == 1
    assert decode(0b0001, t) == DecodedPair(1, 0)   # subnormal 0.5: no leading one
    assert decode(0b0010, t) == DecodedPair(2, 0)   # 1, the first normal
    assert decode(0b0111, t) == DecodedPair(3, 2)   # 6
    assert decode(0b1111, t) == DecodedPair(-3, 2)  # -6
    assert decode(0b1000, t) == DecodedPair(0, 0)   # sign bit over a zero magnitude


def test_float_operand_ranges():
    # The largest base magnitude and exponent of each float format, which
    # bound its products on int64 lanes (see the pe docstring).
    for split, width, most in (((2, 1), 4, (3, 2)), ((4, 3), 8, (15, 14)), ((5, 2), 8, (7, 30))):
        pair = NumericType("float", width, True, split).decoded()
        assert (int(np.abs(pair.base).max()), int(pair.exponent.max())) == most, split


def test_decode_operand_matches_lut():
    for name, t in TYPES4.items():
        pair = t.decoded()
        assert pair.base.dtype == pair.exponent.dtype == np.int64
        assert not pair.base.flags.writeable and not pair.exponent.flags.writeable
        for code in range(16):
            d = decode(code, t)
            assert d.base * (1 << d.exponent) == code_value(code, t), (name, code)


def test_decode_operand_rejects_bad_code_and_kind():
    # One entry per code word: a code past the width has no row.
    assert all(t.decoded().base.size == 16 for t in TYPES4.values())
    with pytest.raises(IndexError):
        TYPES4["int"].decoded().base[16]
    with pytest.raises(QuantizationError):
        NumericType("posit", 4, True).decoded()


# ---------------------------------------------------------------------------
# mac_step
# ---------------------------------------------------------------------------

def test_mac_step_accumulates():
    s = pe.mac_step(WIDE, DecodedPair(3, 0), DecodedPair(2, 1))  # 3 * 4
    assert s.accumulator == 12
    s = pe.mac_step(s, DecodedPair(-1, 2), DecodedPair(1, 0))  # -4
    assert s.accumulator == 8
    assert not s.overflowed


def test_mac_step_is_pure():
    s0 = pe.MacState()
    pe.mac_step(s0, DecodedPair(7, 0), DecodedPair(7, 0))
    assert s0.accumulator == 0


def test_mac_exhaustive_all_type_pairs():
    # Every ordered pair of 4-bit integer-path types, every code pair:
    # the shifted integer product equals the product of decoded values.
    for ta, tb in itertools.product(TYPES4.values(), repeat=2):
        va, vb = ta.code_values(), tb.code_values()
        for ca in range(16):
            da = decode(ca, ta)
            for cb in range(16):
                s = pe.mac_step(WIDE, da, decode(cb, tb))
                assert s.accumulator == va[ca] * vb[cb]


def test_mac_float_pairs_after_the_offset_shift():
    # Float against every 4-bit kind, both orders, signed and unsigned: the
    # shifted integer product times 2**-(offset_a + offset_b) is the
    # product of the decoded values.
    for signed in (False, True):
        types = [NumericType(k, 4, signed) for k in KINDS]
        for ta, tb in itertools.product(types, repeat=2):
            if "float" not in (ta.kind, tb.kind):
                continue
            a, b = ta.decoded(), tb.decoded()
            got = pe.mac_step(WIDE, DecodedPair(a.base[:, None], a.exponent[:, None]), b)
            shift = ta.exponent_offset + tb.exponent_offset
            want = np.outer(ta.code_values(), tb.code_values())
            assert np.array_equal(np.ldexp(got.accumulator, -shift), want), (ta.name, tb.name)


def test_mac_policy_widen_flags_but_keeps_exact():
    s = pe.mac_step(pe.MacState(), DecodedPair(1, 10), DecodedPair(1, 6))
    assert s.accumulator == 1 << 16  # past the 16-bit product: flagged, exact
    assert s.overflowed
    # Python ints stay exact past int64 too: the sum overflows the 64-bit
    # accumulator and is flagged, the product fits 128 bits.
    wide = pe.MacState(acc_width=64, product_width=128)
    s = pe.mac_step(wide, DecodedPair(3, 62), DecodedPair(1, 0))  # 3 * 2^62
    assert s.accumulator == 3 * 2**62 and s.overflowed
    # The signed 8-bit range is [-128, 127], for the product and the sum alike.
    small = pe.MacState(acc_width=8, product_width=8)
    for base, exponent, over in ((-1, 7, False), (127, 0, False), (1, 7, True), (-129, 0, True)):
        s = pe.mac_step(small, DecodedPair(base, exponent), DecodedPair(1, 0))
        assert s.accumulator == base << exponent and s.overflowed == over, (base, exponent)
    s = pe.mac_step(pe.MacState(100, acc_width=8, product_width=8), DecodedPair(28, 0), DecodedPair(1, 0))
    assert s.accumulator == 128 and s.overflowed  # the product fits, the sum does not


LANE = st.tuples(
    st.integers(-(1 << 20), 1 << 20),  # accumulator
    st.integers(-128, 127), st.integers(0, 12),  # a.base, a.exponent
    st.integers(-128, 127), st.integers(0, 12),  # b.base, b.exponent
    st.booleans(),  # overflowed already
)


@given(
    lanes=st.lists(LANE, min_size=1, max_size=12),
    product_width=st.integers(4, 24),
    acc_width=st.integers(4, 24),
)
def test_array_mac_step_matches_scalar_lanes(lanes, product_width, acc_width):
    # Products reach 2^26 and sums 2^27, past both widths: lanes overflow
    # the product, the accumulator, both or neither.
    acc, ab, ae, bb, be, flag = (np.array(col, dtype=np.int64) for col in zip(*lanes))
    flag = flag.astype(bool)
    want = [
        pe.mac_step(pe.MacState(lane[0], acc_width, product_width, lane[5]),
                    DecodedPair(*lane[1:3]), DecodedPair(*lane[3:5]))
        for lane in lanes
    ]
    state = pe.MacState(acc, acc_width, product_width, flag)
    got = pe.mac_step(state, DecodedPair(ab, ae), DecodedPair(bb, be))
    assert got.accumulator.tolist() == [s.accumulator for s in want]
    assert got.overflowed.tolist() == [s.overflowed for s in want]
    assert (got.acc_width, got.product_width) == (acc_width, product_width)


def test_default_product_width_covers_flint_times_int():
    # Largest flint4 x int4 product: 16 * 8 = 128 ... signed magnitudes
    # reach 16 * 8 = 128 < 2^15, so the default 16-bit product is exact.
    t_f, t_i = TYPES4["flint"], TYPES4["int"]
    for ca in range(16):
        for cb in range(16):
            s = pe.mac_step(pe.MacState(), decode(ca, t_f), decode(cb, t_i))
            assert not s.overflowed


# ---------------------------------------------------------------------------
# mul8_via_four
# ---------------------------------------------------------------------------

def test_mul8_exhaustive_signed():
    for a in range(-128, 128):
        for b in range(-128, 128):
            assert pe.mul8_via_four(a, b) == a * b


def test_mul8_exhaustive_unsigned():
    for a in range(0, 256, 3):
        for b in range(0, 256, 7):
            assert pe.mul8_via_four(a, b, signed=False) == a * b
    # Every pair, one lane each: a down the rows, b across.
    a = np.arange(256, dtype=np.int64)[:, None]
    b = np.arange(256, dtype=np.int64)
    got = pe.mul8_via_four(a, b, signed=False)
    assert got.shape == (256, 256)
    np.testing.assert_array_equal(got, a * b)


def test_mul8_rejects_out_of_range():
    with pytest.raises(QuantizationError):
        pe.mul8_via_four(128, 0)
    with pytest.raises(QuantizationError):
        pe.mul8_via_four(-1, 0, signed=False)
    with pytest.raises(QuantizationError, match="^128 outside"):
        pe.mul8_via_four(np.array([5, 128, -129]), 0)
    with pytest.raises(QuantizationError, match="^-1 outside"):
        pe.mul8_via_four(0, np.array([255, -1]), signed=False)


def test_mul8_uses_only_mac_steps(monkeypatch):
    # The composition must route every partial product through the 4-bit PE.
    calls = []
    real = pe.mac_step

    def counting(state, a, b):
        calls.append((a, b))
        return real(state, a, b)

    monkeypatch.setattr(pe, "mac_step", counting)
    assert pe.mul8_via_four(-77, 55) == -77 * 55
    assert len(calls) == 4
    # Each partial multiplies nibble-sized bases only.
    for a, b in calls:
        assert -8 <= a.base <= 15 and -8 <= b.base <= 15

