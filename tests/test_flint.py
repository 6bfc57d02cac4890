import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flintq import flint, qtypes
from flintq.qtypes import NumericType

TABLE_UNSIGNED4 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 24, 32, 64]
HERE = os.path.dirname(__file__)


# ---------------------------------------------------------------------------
# The first-one encoder: an integer magnitude split into a first-one exponent
# code and a mantissa rounded half away from zero, the construction the
# format is defined by.  It is kept here as an oracle independent of the
# tables flint.encode reads.  It rounds its input to an integer first, so it
# is the oracle on the integers only, where that rounding changes nothing.
# ---------------------------------------------------------------------------

def interval_index(e, b):
    """Value-interval index i = floor(log2(e)) + 1 for an integer magnitude."""
    if e < 1 or e > (1 << (2 * b - 2)):
        raise flint.FlintDomainError(f"magnitude {e} outside [1, 2^{2 * b - 2}] for width {b}")
    return int(e).bit_length()


def exponent_code(b, i):
    """First-one exponent code (a bit string) for interval i of a b-bit flint;
    the interval's mantissa width is ``b - len(code)``."""
    if not 1 <= i <= 2 * b - 1:
        raise flint.FlintDomainError(f"interval index {i} outside [1, {2 * b - 1}] for width {b}")
    if i <= b - 1:
        return "0" * (b - i) + "1"
    if i == b:
        return "11"
    if i <= 2 * b - 2:
        return "1" + "0" * (i - b) + "1"
    return "1" + "0" * (b - 1)  # i == 2b - 1, the top interval


def mantissa_width(b, i):
    return b - len(exponent_code(b, i))


def first_one_encode(q, b, signed=False):
    """The code of the integer ``q``: its magnitude, clamped to the range,
    split into interval and mantissa; unsigned types take negatives to 0."""
    mag_width = b - 1 if signed else b
    a = min(abs(q), 1 << (2 * mag_width - 2)) if signed or q > 0 else 0
    if a == 0:
        return 0
    i = interval_index(a, mag_width)
    mb = mantissa_width(mag_width, i)
    m = math.floor(Fraction(a - (1 << (i - 1)), 1 << (i - 1)) * (1 << mb) + Fraction(1, 2))
    if m == 1 << mb:  # the mantissa rounded up into the next interval
        i, m = i + 1, 0
        mb = mantissa_width(mag_width, i)
    code = (int(exponent_code(mag_width, i), 2) << mb) | m
    return code | (1 << (b - 1)) if signed and q < 0 else code


def test_interval_index_examples():
    assert interval_index(11, 4) == 4
    assert interval_index(1, 4) == 1
    assert interval_index(64, 4) == 7  # floor(log2 64) + 1, last table row


@pytest.mark.parametrize("e", [0, -1, 65])
def test_interval_index_domain(e):
    with pytest.raises(flint.FlintDomainError):
        interval_index(e, 4)


def test_exponent_code_examples():
    assert exponent_code(4, 4) == "11"
    assert mantissa_width(4, 4) == 2
    assert exponent_code(4, 1) == "0001"
    assert mantissa_width(4, 1) == 0
    assert exponent_code(4, 6) == "1001"
    assert mantissa_width(4, 6) == 0


def test_exponent_code_domain():
    with pytest.raises(flint.FlintDomainError):
        exponent_code(4, 0)
    with pytest.raises(flint.FlintDomainError):
        exponent_code(4, 8)


@pytest.mark.parametrize("b", range(3, 9))
def test_exponent_codes_are_prefix_distinct(b):
    # Every interval gets a distinct code that fits the width.
    codes = [exponent_code(b, i) for i in range(1, 2 * b)]
    assert len(set(codes)) == len(codes)
    for c in codes:
        assert len(c) <= b


FLINT_TYPES = [(b, signed) for b in range(3, 9) for signed in (False, True)]


@pytest.mark.parametrize("b,signed", FLINT_TYPES)
def test_first_one_encoder_gives_the_cell_codes(b, signed):
    # The code quantize writes for each grid value is the first-one code.
    t = NumericType("flint", b, signed)
    want = [first_one_encode(int(v), b, signed) for v in t.grid()]
    assert qtypes._cell_codes(t).tolist() == want


@pytest.mark.parametrize("b,signed", FLINT_TYPES)
def test_first_one_encoder_matches_encode_on_every_integer(b, signed):
    # Every integer of the range and a few past each end, both signs; an
    # unsigned type takes negatives to 0.
    top = 1 << (2 * (b - signed) - 2)
    for q in range(-top - 3, top + 4):
        assert flint.encode(q, b, 1.0, signed).bits == first_one_encode(q, b, signed), q


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_encode_worked_example():
    c = flint.encode(11, 4, 1.0)
    assert c.bits == 0b1110
    assert flint.decode_value(c) == 12


def test_encode_zero_is_all_zero_code():
    for b in range(3, 9):
        assert flint.encode(0.0, b).bits == 0
        assert flint.encode(0.0, b, 2.5, signed=True).bits == 0


def test_encode_mantissa_overflow_carries():
    # 15 is a half-way tie between 14 and 16; away from zero is 16, the
    # first code of the next interval.
    assert flint.decode_value(flint.encode(15, 4)) == 16


def test_encode_clamps_to_range():
    assert flint.decode_value(flint.encode(1e9, 4)) == 64
    assert flint.decode_value(flint.encode(-1e9, 4, 1.0, signed=True)) == -16
    assert flint.decode_value(flint.encode(-5.0, 4)) == 0  # unsigned floors at 0


def test_encode_takes_the_nearest_value_of_a_real_input():
    # Not the integer's: 8.6 rounds to 9, whose tie between 8 and 10 would
    # go to 10, but 8.6 is nearer 8; 47.6 is nearer 32 than 64.
    assert flint.decode_value(flint.encode(8.6, 4)) == 8
    assert flint.decode_value(flint.encode(47.6, 4)) == 32
    assert flint.decode_value(flint.encode(-4.9, 4, 0.5, signed=True)) == -8
    assert flint.decode_value(flint.encode(9.0, 4)) == 10  # a tie goes away from zero


def test_encode_rejects_bad_scale():
    with pytest.raises(flint.FlintDomainError):
        flint.encode(1.0, 4, 0.0)


@pytest.mark.parametrize("e,b", [(float("nan"), 4), (float("inf"), 4), (1.0, 2), (1.0, 9)])
def test_encode_rejects_non_finite_values_and_bad_widths(e, b):
    with pytest.raises(flint.FlintDomainError):
        flint.encode(e, b, 1.0, signed=True)


def test_encode_overflowing_quotient_lands_on_the_end_code():
    assert flint.decode_value(flint.encode(1e308, 4, 1e-300)) == 64
    assert flint.decode_value(flint.encode(-1e308, 4, 1e-300, signed=True)) == -16


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def test_decode_float_worked_example():
    fields = flint.decode_float(flint.FlintCode(0b1110, 4))
    assert fields.exponent_value == 3
    assert fields.fraction_value == Fraction(3, 2)
    assert fields.value == 12


def test_decode_float_zero():
    assert flint.decode_float(flint.FlintCode(0, 4)).value == 0


def test_decode_float_all_codes_match_table():
    vals = sorted(flint.decode_float(c).value for c in flint.all_codes(4))
    assert vals == TABLE_UNSIGNED4


def test_decode_int_examples():
    assert flint.decode_int(flint.FlintCode(0b1110, 4)) == flint.DecodedPair(12, 0)
    pair = flint.decode_int(flint.FlintCode(0b1001, 4))
    assert (pair.base, pair.exponent) == (2, 4)
    assert pair.value == 32
    assert flint.decode_int(flint.FlintCode(0b1000, 4)) == flint.DecodedPair(1, 6)


def test_decoders_agree_on_all_codes():
    for b in range(3, 9):
        for signed in (False, True):
            for c in flint.all_codes(b, signed):
                assert flint.decode_float(c).value == flint.decode_int(c).value


def test_decoded_exponent_is_even_and_bounded():
    for b in range(3, 9):
        for c in flint.all_codes(b):
            pair = flint.decode_int(c)
            assert pair.exponent % 2 == 0
            assert 0 <= pair.exponent <= 2 * (b - 1)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_unsigned4():
    assert flint.enumerate_values(4) == TABLE_UNSIGNED4


def test_enumerate_signed4():
    want = sorted({0, *(s * m for m in (1, 2, 3, 4, 6, 8, 16) for s in (1, -1))})
    assert flint.enumerate_values(4, signed=True) == want


def test_enumerate_unsigned3():
    assert flint.enumerate_values(3) == [0, 1, 2, 3, 4, 6, 8, 16]


@pytest.mark.parametrize("b", range(3, 9))
def test_max_value_is_power_of_two_bound(b):
    assert flint.enumerate_values(b)[-1] == 1 << (2 * b - 2)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(
    b=st.integers(3, 8),
    signed=st.booleans(),
    s=st.floats(0.01, 100.0),
    idx=st.integers(0, 10**6),
)
def test_roundtrip_representable(b, signed, s, idx):
    values = flint.enumerate_values(b, signed)
    v = values[idx % len(values)]
    assert flint.decode_value(flint.encode(v * s, b, s, signed)) == v


@given(b=st.integers(3, 8))
def test_monotone_in_magnitude(b):
    prev = -1
    for e in range(0, (1 << (2 * b - 2)) + 1):
        v = flint.decode_value(flint.encode(e, b))
        assert v >= prev
        prev = v


def _nearest(grid, e):
    return min(grid, key=lambda v: (abs(e - v), abs(v)))


@pytest.mark.parametrize("signed", [False, True])
def test_nearest_value_fidelity_with_golden_ties(signed):
    with open(os.path.join(HERE, "data", "flint4_ties.json")) as f:
        golden = json.load(f)["signed" if signed else "unsigned"]
    ties = {t["input"]: t for t in golden}
    grid = flint.enumerate_values(4, signed)
    lo = -16 if signed else 0
    for e in range(lo, grid[-1] + 1):
        got = flint.decode_value(flint.encode(e, 4, 1.0, signed))
        best = _nearest(grid, e)
        if got == best:
            continue
        tie = ties.get(e)
        assert tie is not None, f"non-tie disagreement at {e}: {got} vs {best}"
        assert got in tie["nearest"]
        # Both tie candidates are adjacent grid entries (one code step apart).
        i, j = (grid.index(v) for v in tie["nearest"])
        assert abs(i - j) == 1


def test_golden_tie_file_matches_oracle():
    # Regenerates the tie list from scratch and compares to the checked-in file.
    with open(os.path.join(HERE, "data", "flint4_ties.json")) as f:
        golden = json.load(f)
    for signed, key in ((False, "unsigned"), (True, "signed")):
        grid = flint.enumerate_values(4, signed)
        lo = -16 if signed else 0
        fresh = []
        for e in range(lo, grid[-1] + 1):
            dists = sorted((abs(e - v), v) for v in grid)
            if dists[0][0] == dists[1][0]:
                fresh.append({
                    "input": e,
                    "nearest": sorted([dists[0][1], dists[1][1]]),
                    "encoded": flint.decode_value(flint.encode(e, 4, 1.0, signed)),
                })
        assert fresh == golden[key]
