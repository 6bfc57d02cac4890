import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flintq import flint, qtypes, tensor_io
from flintq.qtypes import (
    KINDS,
    NumericType,
    QTensor,
    QuantScheme,
    QuantizationError,
    dequantize,
    fake_quantize,
    mse,
    quantize,
)

FLINT4U = NumericType("flint", 4, signed=False)
INT4 = NumericType("int", 4, signed=True)


def per_tensor(ntype, s):
    return QuantScheme(ntype, np.array([float(s)]))


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------

def test_int4_worked_example():
    q = quantize(np.array([0.26]), per_tensor(INT4, 0.1))
    assert q.codes.tolist() == [3]
    assert dequantize(q).tolist() == [pytest.approx(0.3)]


def test_flint4_table_grid_is_exact():
    grid = FLINT4U.grid()
    s = 0.37
    q = quantize(grid * s, per_tensor(FLINT4U, s))
    assert mse(dequantize(q), grid * s) == 0.0
    assert sorted(q.codes.tolist()) == list(range(16))


def test_flint_codes_match_scalar_encoder():
    rng = np.random.default_rng(3)
    t = rng.normal(size=512) * 4
    q = quantize(t, per_tensor(NumericType("flint", 4, True), 0.5))
    for x, c in zip(t, q.codes):
        assert int(c) == flint.encode(float(x), 4, 0.5, signed=True).bits


def test_dequantize_flint_code_example():
    q = QTensor(np.array([0b1110]), (1,), per_tensor(FLINT4U, 0.5))
    assert dequantize(q).tolist() == [6.0]


def test_all_zero_codes_dequantize_to_zero():
    for kind in ("int", "pot", "flint", "float"):
        t = NumericType(kind, 4, signed=True)
        q = QTensor(np.zeros(8, dtype=np.uint8), (8,), per_tensor(t, 1.0))
        assert np.all(dequantize(q) == 0)


def test_unsigned_rejects_negative_input():
    with pytest.raises(QuantizationError):
        quantize(np.array([-0.5]), per_tensor(FLINT4U, 1.0))


def test_non_finite_input_rejected():
    with pytest.raises(QuantizationError):
        quantize(np.array([np.nan]), per_tensor(INT4, 1.0))


def test_normal_data_flint_beats_int_on_heavy_tails():
    # On data with heavier-than-uniform tails the nonuniform grid pays off.
    rng = np.random.default_rng(0)
    t = rng.laplace(size=1000)
    fl = NumericType("flint", 4, True)
    best = {}
    for ntype in (fl, INT4):
        errs = []
        for clip in np.linspace(0.2, 1.0, 81) * np.abs(t).max():
            s = clip / ntype.max_value()
            errs.append(mse(fake_quantize(t, per_tensor(ntype, s)), t))
        best[ntype.kind] = min(errs)
    assert best["flint"] < best["int"]


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_basics():
    assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == 2.0


def test_mse_shape_mismatch():
    with pytest.raises(QuantizationError):
        mse(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# Type grids
# ---------------------------------------------------------------------------

def test_pot_values():
    t = NumericType("pot", 4, signed=False)
    lut = t.code_values()
    assert lut[0] == 0
    for k in range(1, 16):
        assert lut[k] == 2.0 ** (k - 1)


def test_signed_pot_equals_float_3_0():
    pot = NumericType("pot", 4, signed=True)
    fl = NumericType("float", 4, signed=True, float_split=(3, 0))
    assert np.array_equal(pot.grid(), fl.grid())


def test_float_subnormals():
    t = NumericType("float", 4, signed=False, float_split=(2, 2))
    lut = t.code_values()
    # Exponent code 0: no implicit leading one, values m/4 at the min exponent.
    assert lut[:4].tolist() == [0.0, 0.25, 0.5, 0.75]
    assert lut[4] == 1.0  # first normal


FLOAT_TYPES = [NumericType("float", w, s, (e, w - s - e))
               for w in range(3, 9) for s in (False, True) for e in range(w - s + 1)]


def _float_layout_values(t):
    """Each float code's value from the layout's own formula: bias -1, and
    exponent code 0 subnormal, at the exponent of code 1 with no leading
    one; a sign bit (if signed) over the magnitude code."""
    e_bits, m_bits = t.float_split
    ec = np.arange(1 << e_bits)[:, None]
    m = np.arange(1 << m_bits)[None, :]
    normal = 2.0 ** (ec - 1) * (1.0 + m / (1 << m_bits))
    sub = 2.0 ** 0 * (m / (1 << m_bits))
    mag = np.where(ec == 0, sub, normal).ravel()
    return np.concatenate([mag, -mag]) if t.signed else mag


@pytest.mark.parametrize("ntype", FLOAT_TYPES, ids=lambda t: t.name)
def test_float_code_values_match_the_layout_formula(ntype):
    # Adding +0.0 maps the formula's -0.0 (a sign bit over a zero
    # magnitude) to +0.0, what the (base, exponent) decode gives.
    assert ntype.code_values().tobytes() == (_float_layout_values(ntype) + 0.0).tobytes()
    assert ntype.exponent_offset == ntype.float_split[1]


def test_no_code_value_is_negative_zero():
    types = [NumericType(k, w, s) for k in KINDS if k != "float"
             for w in range(3, 9) for s in (False, True)]
    for t in types + FLOAT_TYPES:
        values = t.code_values()
        assert not np.any(np.signbit(values[values == 0])), t.name


def test_float_split_fields_must_not_be_negative():
    with pytest.raises(QuantizationError):
        NumericType("float", 4, signed=True, float_split=(5, -2))


def test_int8_always_available():
    t = NumericType("int", 8, signed=True)
    assert t.grid()[0] == -128 and t.grid()[-1] == 127


def test_clamping_bounds_dequantized_magnitude():
    rng = np.random.default_rng(1)
    for kind in ("int", "pot", "flint", "float"):
        t = NumericType(kind, 4, signed=True)
        s = 0.05
        out = fake_quantize(rng.normal(size=200) * 10, per_tensor(t, s))
        assert np.max(np.abs(out)) <= s * np.max(np.abs(t.grid())) + 1e-12


def test_code_tables_are_read_only():
    t = NumericType("flint", 4, signed=True)
    for table in (t.code_values(), t.grid(), t.thresholds()):
        with pytest.raises(ValueError):
            table[0] = 1.0


# ---------------------------------------------------------------------------
# Reference quantizer: brute force over every code word, independent of the
# threshold tables and of every qtypes helper (the way test_selector keeps
# the plain sweep).  Input already divided by the scale; returns codes.
# ---------------------------------------------------------------------------

def _nearest_codes(u, t):
    """The code of the value nearest to each ``u``, ties away from zero, and
    of the codes with that value the lowest.

    Past an end of the grid the nearest value is the end value, so ``u`` is
    clipped there first.  Inside, each grid's neighbouring values lie within
    a factor 2 of each other (or one is 0), so ``u``'s distances to its two
    neighbours are exact in float64, and rounding is monotone, so no value
    farther away can tie with them.
    """
    values = t.code_values()
    u = np.clip(np.ravel(u), values.min(), values.max())
    codes = np.empty(u.size, dtype=np.uint8)
    for start in range(0, u.size, 1024):
        d = np.abs(u[start:start + 1024, None] - values)
        best = d == d.min(axis=1, keepdims=True)
        away = np.where(best, np.abs(values), -1.0)
        best &= away == away.max(axis=1, keepdims=True)
        codes[start:start + 1024] = np.argmax(best, axis=1)  # the lowest such code
    return codes


ALL_TYPES = [NumericType(k, w, s) for k in KINDS for w in range(3, 9) for s in (False, True)]


def _test_points(ntype):
    """Every threshold and every midpoint of neighbouring grid values, one
    ulp either side of each, +-1e300, and seeded random reals, uniform and
    log-uniform in magnitude over the grid's range and a little past it."""
    thr, grid = ntype.thresholds(), ntype.grid()
    mid = (grid[:-1] + grid[1:]) / 2
    rng = np.random.default_rng([ntype.width, KINDS.index(ntype.kind), ntype.signed])
    top = 1.2 * np.abs(grid).max()
    tiny = np.abs(grid[grid != 0]).min() / 8
    mag = np.concatenate([rng.uniform(0.0, top, 2500),
                          np.exp(rng.uniform(np.log(tiny), np.log(top), 2500))])
    u = np.concatenate([thr, mid, [1e300, -1e300, 0.49999999999999994, -0.49999999999999994],
                        mag * rng.choice([-1.0, 1.0], mag.size)])
    u = np.concatenate([u, np.nextafter(u[:2 * thr.size], -np.inf),
                        np.nextafter(u[:2 * thr.size], np.inf)])
    return u if ntype.signed else np.abs(u)


@pytest.mark.parametrize("ntype", ALL_TYPES, ids=lambda t: t.name)
def test_thresholds_match_quantizer(ntype):
    # quantize and fake_quantize give the brute-force nearest value at every
    # test point.  Each threshold is the first float64 that the reference
    # maps above the grid value below it: one ulp lower still lands on
    # grid[k], the threshold itself and one ulp higher on grid[k + 1].
    thr, grid = ntype.thresholds(), ntype.grid()
    assert thr.size == grid.size - 1 and np.all(np.diff(thr) > 0)
    down = _nearest_codes(np.nextafter(thr, -np.inf), ntype)
    up = _nearest_codes(thr, ntype)
    assert np.array_equal(ntype.code_values()[down], grid[:-1])
    assert np.array_equal(ntype.code_values()[up], grid[1:])
    u = _test_points(ntype)
    codes = _nearest_codes(u, ntype)
    values = ntype.code_values()[codes]
    scheme = per_tensor(ntype, 1.0)
    assert quantize(u, scheme).codes.tobytes() == codes.tobytes()
    assert fake_quantize(u, scheme).tobytes() == values.tobytes()
    # The bucket lookup agrees with the table search too.
    assert np.array_equal(values, grid[np.searchsorted(thr, u, side="right")])
    if ntype.kind == "flint":
        scalar = [flint.encode(float(x), ntype.width, 1.0, ntype.signed).bits for x in u]
        assert codes.tolist() == scalar


@pytest.mark.parametrize("ntype", ALL_TYPES, ids=lambda t: t.name)
def test_overflowing_quotient_lands_on_end_cells(ntype):
    # v / scale overflows to +-inf: the top cell, or the bottom one if signed.
    v = np.array([1e308, -1e308] if ntype.signed else [1e308])
    scheme = per_tensor(ntype, 1e-300)
    want = ntype.grid()[[-1, 0]][:v.size]
    assert np.array_equal(ntype.code_values()[quantize(v, scheme).codes], want)
    assert np.array_equal(fake_quantize(v, scheme), want * 1e-300)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_cell_gets_code_zero_and_positive_zero(kind):
    ntype = NumericType(kind, 4, signed=True)
    grid = ntype.grid()
    assert not np.any(np.signbit(grid[grid == 0]))
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-3, -1e-3, 0.1, -0.1])
    q = quantize(tiny, per_tensor(ntype, 1.0))
    assert q.codes.tolist() == [0] * tiny.size
    assert not np.any(np.signbit(fake_quantize(tiny, per_tensor(ntype, 1.0))))


@pytest.mark.parametrize("ntype", [NumericType(k, w, s) for k in KINDS for w in (4, 8)
                                   for s in (True, False)], ids=lambda t: t.name)
def test_fake_quantize_is_quantize_then_dequantize_bit_for_bit(ntype):
    rng = np.random.default_rng([ntype.width, KINDS.index(ntype.kind)])
    t = rng.laplace(size=(6, 50)) * 10.0 ** rng.uniform(-4, 1, size=(6, 50))
    t[:, :5] = [0.0, -0.0, 5e-324, -5e-324, 1e-9]
    t = t if ntype.signed else np.abs(t)
    for scheme in (per_tensor(ntype, 0.3), QuantScheme(ntype, 10.0 ** rng.uniform(-2, 1, 6), axis=0)):
        assert fake_quantize(t, scheme).tobytes() == dequantize(quantize(t, scheme)).tobytes()
    scalar = np.float64(0.7)
    assert fake_quantize(scalar, per_tensor(ntype, 0.3)).shape == ()
    assert quantize(scalar, per_tensor(ntype, 0.3)).shape == ()


def test_rounding_rules_are_off_the_quantize_path(monkeypatch):
    # With the tables built, quantize and fake_quantize call neither of
    # flint's scalar functions, which read the same tables one code at a time.
    types = [NumericType(k, w, s) for k in KINDS for w in (3, 4, 8) for s in (False, True)]
    for ntype in types:
        quantize(np.zeros(1), per_tensor(ntype, 1.0))

    def boom(*args, **kwargs):
        raise AssertionError("table builder called on the quantize path")

    for name in ("encode", "decode_int"):
        monkeypatch.setattr(flint, name, boom)
    t = np.abs(np.random.default_rng(0).normal(size=(3, 40)))
    for ntype in types:
        for scheme in (per_tensor(ntype, 0.1), QuantScheme(ntype, np.array([0.1, 0.2, 0.3]), axis=0)):
            quantize(t, scheme)
            fake_quantize(t, scheme)


FLINT_TYPES = [NumericType("flint", w, s) for w in range(3, 9) for s in (False, True)]


@pytest.mark.parametrize("ntype", FLINT_TYPES, ids=lambda t: t.name)
def test_flint_rule_is_int_rounding_then_nearest_value(ntype):
    # On the integers, rounding u to an integer first changes nothing, so
    # there the nearest-value rule and the two-stage rule of the first-one
    # encoder (tests/test_flint.py) agree; that is why the tie list in
    # tests/data/flint4_ties.json stays valid.  Checked on every integer of
    # the grid's range and a few past each end, from 0 for unsigned types.
    grid = ntype.grid()
    q = np.arange(grid[0] - 3 if ntype.signed else 0.0, grid[-1] + 4)
    want = ntype.code_values()[_nearest_codes(q, ntype)]
    assert fake_quantize(q, per_tensor(ntype, 1.0)).tolist() == want.tolist()
    scalar = [flint.encode(float(x), ntype.width, 1.0, ntype.signed).bits for x in q]
    assert quantize(q, per_tensor(ntype, 1.0)).codes.tolist() == scalar


def test_tables_build_without_flint_encode(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("flint.encode called while building tables")

    monkeypatch.setattr(flint, "encode", boom)
    caches = (qtypes._decoded, qtypes._code_values, qtypes._cell_codes, qtypes._grid,
              qtypes._thresholds, qtypes._bucket_cells)
    for cache in caches:
        cache.cache_clear()
    for ntype in ALL_TYPES:
        grid, thr = ntype.grid(), ntype.thresholds()
        assert ntype.code_values().size == 1 << ntype.width
        assert thr.size == grid.size - 1 and np.all((grid[:-1] < thr) & (thr <= grid[1:]))
        cells, shift, lo, hi = qtypes._bucket_cells(ntype)
        # _cells adds the negative buckets' offset in uint16.
        assert 0 < lo < hi and cells.size == 2 * (hi - lo + 1) < 1 << 16
        assert cells.min() >= 0 and cells.max() < grid.size


@pytest.mark.parametrize("ntype", ALL_TYPES, ids=lambda t: t.name)
def test_every_bucket_lies_in_one_cell(ntype):
    # The lowest and the highest float64 of every bucket of the lookup, of
    # either sign, share one cell of the table search, and the lookup gives
    # it.  The clipped end buckets reach down to 0 and up to the largest
    # float64.
    cells, shift, lo, hi = qtypes._bucket_cells(ntype)
    b = np.arange(lo, hi + 1, dtype=np.int64)
    low, high = b << shift, ((b + 1) << shift) - 1
    low[0], high[-1] = 0, np.finfo(np.float64).max.view(np.int64)
    low, high = low.view(np.float64), high.view(np.float64)
    thr = ntype.thresholds()
    for sign, table in ((1.0, cells[:b.size]), (-1.0, cells[b.size:])):
        want = np.searchsorted(thr, sign * low, side="right")
        assert np.array_equal(np.searchsorted(thr, sign * high, side="right"), want)
        assert np.array_equal(table, want)
        if ntype.signed or sign > 0:
            u = sign * np.concatenate([low, high])
            assert np.array_equal(fake_quantize(u, per_tensor(ntype, 1.0)), ntype.grid()[np.tile(want, 2)])


@pytest.mark.parametrize("kind", ["int", "pot", "flint"])
def test_float_split_on_a_non_float_kind_is_rejected(kind):
    with pytest.raises(QuantizationError, match="float split"):
        NumericType(kind, 4, True, (2, 1))


# ---------------------------------------------------------------------------
# Per-channel
# ---------------------------------------------------------------------------

def test_per_channel_independence():
    rng = np.random.default_rng(2)
    t = rng.normal(size=(4, 64))
    scales = np.array([0.1, 0.2, 0.3, 0.4])
    q = quantize(t, QuantScheme(INT4, scales, axis=0))
    for c in range(4):
        single = quantize(t[c], per_tensor(INT4, scales[c]))
        assert np.array_equal(q.codes.reshape(4, 64)[c], single.codes)


def test_per_channel_scale_count_checked():
    with pytest.raises(QuantizationError):
        quantize(np.zeros((3, 2)), QuantScheme(INT4, np.array([1.0, 1.0]), axis=0))


def test_negative_axis_is_stored_non_negative_and_round_trips(tmp_path):
    t = np.random.default_rng(3).normal(size=(4, 6))
    scheme = QuantScheme(INT4, np.linspace(0.1, 0.6, 6), axis=-1)
    q = quantize(t, scheme)
    assert q.scheme.axis == 1
    path = str(tmp_path / "q.qtensor")
    tensor_io.save_qtensor(path, q)
    back = tensor_io.load_qtensor(path)
    assert back.scheme.axis == 1
    assert dequantize(back).tobytes() == fake_quantize(t, scheme).tobytes()


@pytest.mark.parametrize("fn", [quantize, fake_quantize])
def test_axis_out_of_range_is_a_quantization_error(fn):
    scheme = QuantScheme(INT4, np.ones(4), axis=5)
    with pytest.raises(QuantizationError, match=r"^axis 5 is out of range for a 2-D tensor$"):
        fn(np.ones((4, 6)), scheme)


# quantize/dequantize broadcast the scales along the axis; the reference
# takes one slice at a time, divides or multiplies by its scale and runs the
# brute-force reference quantizer, so both must agree bit for bit.
def _sliced_reference(t, scheme):
    codes, values = np.zeros(t.shape, dtype=np.uint8), np.zeros(t.shape)
    for c, scale in enumerate(scheme.scales):
        sel = tuple(c if i == scheme.axis else slice(None) for i in range(t.ndim))
        codes[sel] = _nearest_codes(t[sel] / scale, scheme.ntype).reshape(t[sel].shape)
        values[sel] = scheme.ntype.code_values()[codes[sel]]
        values[sel] *= scale
    return codes, values


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("ntype", [NumericType(k, w, s) for k in KINDS for w in (4, 8)
                                   for s in (True, False)], ids=lambda t: t.name)
def test_per_channel_quantize_matches_sliced_reference(ntype, axis):
    rng = np.random.default_rng([axis, ntype.width, KINDS.index(ntype.kind)])
    t = rng.laplace(size=(5, 6, 7)) * 10.0 ** rng.uniform(-2, 2, size=(5, 6, 7))
    t = t if ntype.signed else np.abs(t)
    scales = 10.0 ** rng.uniform(-2, 1, size=t.shape[axis])
    scheme = QuantScheme(ntype, scales, axis=axis)
    q = quantize(t, scheme)
    codes, values = _sliced_reference(t, scheme)
    assert q.codes.tobytes() == codes.tobytes()
    assert dequantize(q).tobytes() == values.tobytes()
    assert fake_quantize(t, scheme).tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=50)
@given(
    t=arrays(np.float64, 64, elements=st.floats(-100, 100)),
    c=st.floats(0.001, 1000.0),
    kind=st.sampled_from(["int", "pot", "flint", "float"]),
)
def test_scale_equivariance(t, c, kind):
    ntype = NumericType(kind, 4, signed=True)
    s = 0.37
    q1 = quantize(t, per_tensor(ntype, s))
    q2 = quantize(t * c, per_tensor(ntype, s * c))
    # Identical up to float rounding of (t*c)/(s*c) at code boundaries.
    v1 = dequantize(q1)
    v2 = dequantize(q2) / c
    step = s  # one grid step at unit scale is >= 1 for these types
    assert np.max(np.abs(v1 - v2)) <= 2 * step * max(1.0, np.abs(t).max() / s)


@settings(max_examples=30)
@given(t=arrays(np.float64, 32, elements=st.floats(-50, 50)))
def test_quantize_dequantize_idempotent(t, ):
    # Re-quantizing an already quantized tensor is the identity.
    for kind in ("int", "flint"):
        scheme = per_tensor(NumericType(kind, 4, True), 0.5)
        once = fake_quantize(t, scheme)
        twice = fake_quantize(once, scheme)
        assert np.array_equal(once, twice)
