import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flintq import flint, qtypes
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


ALL_TYPES = [NumericType(k, w, s) for k in KINDS for w in range(3, 9) for s in (False, True)]


@pytest.mark.parametrize("ntype", ALL_TYPES, ids=lambda t: t.name)
def test_thresholds_match_quantizer(ntype):
    # Each threshold is the first float64 that quantizes above the grid
    # value below it: its lower neighbour still lands on grid[k], it and
    # its upper neighbour on grid[k + 1].
    thr, grid = ntype.thresholds(), ntype.grid()
    assert thr.size == grid.size - 1 and np.all(np.diff(thr) > 0)
    deq = lambda u: dequantize(quantize(u, per_tensor(ntype, 1.0)))  # noqa: E731
    assert np.array_equal(deq(np.nextafter(thr, -np.inf)), grid[:-1])
    assert np.array_equal(deq(thr), grid[1:])
    assert np.array_equal(deq(np.nextafter(thr, np.inf)), grid[1:])
    # Anywhere else the table lookup agrees with the quantizer.
    top = 1.2 * grid[-1]
    u = np.random.default_rng(ntype.width).uniform(-top if ntype.signed else 0.0, top, 5000)
    assert np.array_equal(deq(u), grid[np.searchsorted(thr, u, side="right")])


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


# quantize/dequantize broadcast the scales along the axis; the reference
# takes one slice at a time, divides or multiplies by its scale and runs the
# kind's quantizer, so both must agree bit for bit.
def _sliced_reference(t, scheme):
    codes, values = np.zeros(t.shape, dtype=np.uint8), np.zeros(t.shape)
    for c, scale in enumerate(scheme.scales):
        sel = tuple(c if i == scheme.axis else slice(None) for i in range(t.ndim))
        codes[sel] = qtypes._QUANT_FNS[scheme.ntype.kind](t[sel] / scale, scheme.ntype)
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
