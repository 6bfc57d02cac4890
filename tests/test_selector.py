import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st, target

from flintq.qtypes import KINDS, NumericType, QuantScheme, QuantizationError, fake_quantize, mse
import flintq.selector as selector_mod
from flintq.selector import (
    DEFAULT_MIN_CLIP_RATIO,
    DEFAULT_SWEEP_STEPS,
    LayerTensors,
    argmin_mse_scale,
    make_candidates,
    ntype_from_json,
    ntype_to_json,
    plan_mixed_precision,
    select_type,
)

INT4 = NumericType("int", 4, signed=True)
CANDS = make_candidates(("int", "pot", "flint"), 4, True)


def _layers(seed=0, n=4):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        w = rng.normal(size=(8, 32)) * (1.0 + i)
        a = np.abs(rng.normal(size=256))
        out.append(LayerTensors(f"layer{i}", w, a))
    return out


# ---------------------------------------------------------------------------
# Scale search
# ---------------------------------------------------------------------------

def test_scale_search_matches_brute_force():
    rng = np.random.default_rng(7)
    t = rng.normal(size=400)
    scheme, err, deg = argmin_mse_scale(t, INT4)
    assert not deg
    max_abs = np.abs(t).max()
    lo = int(round(DEFAULT_SWEEP_STEPS * DEFAULT_MIN_CLIP_RATIO))
    grid = [
        max_abs * j / DEFAULT_SWEEP_STEPS / INT4.max_value()
        for j in range(lo, DEFAULT_SWEEP_STEPS + 1)
    ]
    errs = [mse(fake_quantize(t, QuantScheme(INT4, np.array([s]))), t) for s in grid]
    assert err == min(errs)
    assert scheme.scales[0] == grid[int(np.argmin(errs))]


def test_scale_search_ties_keep_smaller_scale(monkeypatch):
    # Exact MSE ties are vanishingly rare with real data, so force one: every
    # step gets the same prefix-sum score, so every step is re-scored, and
    # every re-score is the same.  The tie must resolve to the smaller scale
    # (the earlier sweep step).  The row is long enough to be prefix-scored.
    rescored, swept = [], []

    def equal_scores(v, types, scales):
        swept.append(len(v))
        return [(np.zeros(s.shape), np.zeros(s.shape)) for s in scales]

    def zero_fake_quantize(x, scheme):
        rescored.extend(scheme.scales.tolist())
        return np.zeros_like(x)  # every step's error is mean(x**2) = 1.0

    monkeypatch.setattr(selector_mod, "_sweep_scores", equal_scores)
    monkeypatch.setattr(selector_mod, "fake_quantize", zero_fake_quantize)
    row = np.tile([1.0, -1.0], 17 * selector_mod._DIRECT_VALUES_PER_CELL)  # int4 has 17 cells
    scheme, err, _ = argmin_mse_scale(row, INT4)
    assert swept == [1]
    assert err == 1.0
    steps = DEFAULT_SWEEP_STEPS - round(DEFAULT_SWEEP_STEPS * DEFAULT_MIN_CLIP_RATIO) + 1
    assert len(set(rescored)) == len(rescored) == steps
    assert scheme.scales[0] == min(rescored) == pytest.approx(
        DEFAULT_MIN_CLIP_RATIO / INT4.max_value()
    )


def test_scale_search_all_zero_is_degenerate():
    scheme, err, deg = argmin_mse_scale(np.zeros(16), INT4)
    assert deg and err == 0.0 and scheme.scales[0] == 1.0


def test_scale_search_empty_rejected():
    with pytest.raises(QuantizationError):
        argmin_mse_scale(np.array([]), INT4)


def test_scale_search_axis_out_of_range_is_a_quantization_error():
    with pytest.raises(QuantizationError, match=r"^axis 5 is out of range for a 2-D tensor$"):
        argmin_mse_scale(np.ones((4, 6)), INT4, axis=5)


def test_scale_search_negative_axis_is_stored_non_negative():
    t = np.random.default_rng(2).normal(size=(4, 6))
    scheme, err, _ = argmin_mse_scale(t, INT4, axis=-1)
    want, want_err, _ = argmin_mse_scale(t, INT4, axis=1)
    assert scheme.axis == 1 and err == want_err
    assert scheme.scales.tobytes() == want.scales.tobytes()


def test_scale_search_per_channel_beats_per_tensor():
    rng = np.random.default_rng(1)
    t = np.stack([rng.normal(size=64) * 0.01, rng.normal(size=64) * 10.0])
    _, err_pt, _ = argmin_mse_scale(t, INT4)
    _, err_pc, _ = argmin_mse_scale(t, INT4, axis=0)
    assert err_pc < err_pt


# The plain sweep the sort-once search must reproduce bit for bit: one
# quantize -> dequantize -> mse round trip per clip step, ties to the earlier.
def _plain_sweep(v, ntype, steps=DEFAULT_SWEEP_STEPS, min_ratio=DEFAULT_MIN_CLIP_RATIO):
    max_abs = float(np.max(np.abs(v)))
    if max_abs == 0.0:
        return 1.0, 0.0
    best_scale, best_mse = None, None
    for j in range(int(round(steps * min_ratio)), steps + 1):
        scale = max_abs * j / steps / ntype.max_value()
        err = mse(fake_quantize(v, QuantScheme(ntype, np.array([scale]))), v)
        if best_scale is None or err < best_mse:  # the first step, also when every MSE is inf
            best_mse, best_scale = err, scale
    return best_scale, best_mse


def _draw(dist, rng, n):
    if dist == "normal":
        return rng.standard_normal(n)
    if dist == "contaminated":
        t = rng.standard_normal(n)
        t[rng.random(n) < 0.05] *= 4
        return t
    if dist == "student_t2":
        return rng.standard_t(2, n)
    if dist == "relu":
        return np.maximum(rng.standard_normal(n), 0.0)
    if dist == "laplace":
        return rng.laplace(size=n)
    if dist == "uniform":
        return rng.uniform(-1, 1, n)
    # Runs of equal values, many of them landing exactly on cell boundaries.
    return np.round(rng.standard_normal(n) * 4) / 4


DISTS = ("normal", "contaminated", "student_t2", "relu", "laplace", "uniform", "rounded")
SWEEP_TYPES = [NumericType(k, w, s) for k in KINDS for w in (4, 8) for s in (True, False)]


def _for_type(t, ntype):
    return t if ntype.signed else np.abs(t)


def _check_per_tensor(t, ntype):
    scheme, err, deg = argmin_mse_scale(t, ntype)
    want_scale, want_err = _plain_sweep(t.ravel(), ntype)
    assert (scheme.scales[0], err) == (want_scale, want_err), ntype.name
    assert deg == (not np.any(t))


@pytest.mark.parametrize("ntype", SWEEP_TYPES, ids=lambda t: t.name)
def test_sweep_scores_within_bound_of_exact_mse(ntype):
    # The re-score picks the plain sweep's step only if every prefix-sum
    # score lies within its bound of the exact MSE.  Values on and one ulp
    # either side of threshold * scale, where x / scale and threshold *
    # scale can disagree, test that the bound covers cuts an ulp off; a
    # wide draw tests the rounding bound.  The terms summed by parts are each
    # up to about M = sum v**2 + 2 D sum|v| + n D**2 and cancel down to the
    # error, most of all on rows whose error is small next to M: values all
    # in [0.9, 1] of max|v|, one value repeated, and both signs of them.
    max_abs, steps = 3.0, np.arange(20, 101)
    scales = max_abs * steps / 100 / ntype.max_value()
    on = (ntype.thresholds()[None, :] * scales[::4, None]).ravel()
    edges = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])
    rng = np.random.default_rng(3)
    wide = rng.laplace(size=5000)
    near_top = rng.uniform(0.9, 1.0, 2000) * max_abs
    repeated = np.full(2000, 0.95 * max_abs)
    both_signs = near_top * rng.choice([-1.0, 1.0], near_top.size)
    # A value repeated on a grid point of one step has almost no error there,
    # so the bound, relative to M, is not small next to it; it must hold.
    on_grid = np.full(2000, ntype.grid()[-2] * scales[40])
    for row in (edges, wide, near_top, repeated, both_signs, on_grid):
        v = _for_type(np.append(row[np.abs(row) < max_abs], max_abs), ntype)
        sweep = v.max() * steps / 100 / ntype.max_value()
        [(est, bound)] = selector_mod._sweep_scores(v[None], [ntype], [sweep[None]])
        est, bound = est[0], bound[0]
        exact = [mse(fake_quantize(v, QuantScheme(ntype, np.array([s]))), v) for s in sweep]
        assert np.all(np.abs(est - exact) <= bound)
        if row is not on_grid:
            assert np.all(bound < 1e-4 * np.array(exact))  # so few steps are re-scored


def _scores_one_scale_at_a_time(row, ntype, scales):
    """The prefix-sum estimates of one row, cut one scale at a time by
    ``searchsorted(xs, thresholds * scale)``, by the same arithmetic as the
    module's (the squared error summed by parts over the cuts, over n)."""
    xs = np.sort(row)
    n = xs.size
    sq_sum = np.einsum("ij,ij->i", xs[None], xs[None])[0]
    p1 = np.concatenate([[0.0], np.cumsum(xs)])
    grid = ntype.grid()
    out = []
    for s in scales:
        cuts = np.searchsorted(xs, ntype.thresholds() * s)
        d_top = grid[-1] * s
        out.append((sq_sum - 2.0 * d_top * p1[n] + n * d_top * d_top
                    + 2.0 * s * (p1[cuts] * np.diff(grid)).sum()
                    - s * s * (cuts * np.diff(grid * grid)).sum()) / n)
    return np.array(out)


CUT_TYPES = [NumericType(k, w, s) for k in ("int", "pot", "flint") for w in (4, 8)
             for s in (True, False)]


@pytest.mark.parametrize("ntype", CUT_TYPES, ids=lambda t: t.name)
def test_sweep_scores_match_cuts_made_one_scale_at_a_time(ntype):
    # However the cuts are searched, each is searchsorted of one threshold
    # times one scale, so every estimate is bit for bit that of a search
    # per scale.  Rows of repeated values, and of values placed exactly on
    # threshold * scale, put runs of equal values on the cuts.
    rng = np.random.default_rng(17)
    steps = np.arange(20, 101)
    # Every threshold times every 7th scale of a row whose max|v| is 3.
    on = (ntype.thresholds()[None, :] * (3.0 * steps[::7, None] / 100 / ntype.max_value())).ravel()
    rows = _for_type(np.stack([np.round(rng.laplace(size=on.size + 1) * 4) / 4,
                               np.append(on, 3.0),
                               np.append(rng.choice(on, on.size), 3.0)]), ntype)
    sweeps = np.abs(rows).max(axis=1, keepdims=True) * steps / 100 / ntype.max_value()
    [(est, _)] = selector_mod._sweep_scores(rows, [ntype], [sweeps])
    for r, row in enumerate(rows):
        want = _scores_one_scale_at_a_time(row, ntype, sweeps[r])
        assert est[r].tobytes() == want.tobytes(), r


@pytest.mark.parametrize("n", [1, 2, 9, 250, 3000])
@pytest.mark.parametrize("dist", DISTS)
def test_sweep_matches_plain_sweep_per_tensor(dist, n):
    rng = np.random.default_rng([DISTS.index(dist), n])
    t = _draw(dist, rng, n) * rng.uniform(0.01, 100)
    for ntype in SWEEP_TYPES:
        _check_per_tensor(_for_type(t, ntype), ntype)


@pytest.mark.parametrize("dist", DISTS)
def test_sweep_matches_plain_sweep_large(dist):
    i = DISTS.index(dist)
    t = _draw(dist, np.random.default_rng(i), 100_000)
    ntype = SWEEP_TYPES[(5 * i) % len(SWEEP_TYPES)]
    _check_per_tensor(_for_type(t, ntype), ntype)


@pytest.mark.parametrize("ntype", SWEEP_TYPES, ids=lambda t: t.name)
def test_sweep_matches_plain_sweep_per_channel(ntype):
    # 40-value rows are scored directly for every type; 120-value rows for
    # the 8-bit types only; rows of more than 8 * 257 values from prefix sums
    # for every type.
    rng = np.random.default_rng(11)
    for n in (40, 120, 8 * 257 + 1):
        rows = [_draw(d, rng, n) * 10.0 ** rng.uniform(-3, 3) for d in DISTS]
        rows.append(np.zeros(n))  # an all-zero channel falls back to scale 1.0
        t = _for_type(np.stack(rows), ntype)
        scheme, err, deg = argmin_mse_scale(t, ntype, axis=0)
        want = [_plain_sweep(row, ntype)[0] for row in t]
        assert scheme.scales.tolist() == want, n
        assert err == mse(fake_quantize(t, QuantScheme(ntype, np.array(want), axis=0)), t), n
        assert deg


def _channels(shape, axis, seed):
    """Laplace values whose magnitude varies by up to 10**4 between channels."""
    rng = np.random.default_rng(seed)
    spread = np.moveaxis(10.0 ** rng.uniform(-2, 2, size=(shape[axis],) + (1,) * (len(shape) - 1)),
                         0, axis)
    return rng.laplace(size=shape) * spread


def _zero_between():
    t = _channels((5, 30), 0, 5)
    t[[1, 3]] = 0.0
    return t


ROW_8BIT = 81 * 257  # largest temporary of one 8-bit row's scores
CHANNEL_CASES = {
    "axis 1 of 2-D": (_channels((40, 9), 1, 1), 1),
    "axis 0 of 3-D": (_channels((6, 5, 7), 0, 2), 0),
    "axis 2 of 3-D": (_channels((6, 5, 7), 2, 3), 2),
    "single-element channels": (_channels((12, 1), 0, 4), 0),
    "zero channels between live ones": (_zero_between(), 0),
    "8-bit channels over several blocks": (_channels((13, 40), 0, 6), 0),
    # Rows long enough for prefix-sum scores: 8-bit ones (one row per block
    # at the module's size), and 4-bit ones over two blocks (the 8-bit types
    # score 110-value rows directly).
    "8-bit channels over several prefix-sum blocks": (_channels((13, 1600), 0, 7), 0),
    "4-bit channels over several prefix-sum blocks": (_channels((30, 110), 0, 8), 0),
}


@pytest.mark.parametrize("case", CHANNEL_CASES)
def test_batched_sweep_matches_plain_sweep_per_slice(monkeypatch, case):
    # All channels are rows of one sweep, scored in blocks of rows and
    # re-scored in chunks of candidates; each channel must still get what a
    # plain sweep of that slice alone gets, whatever the block size.
    t, axis = CHANNEL_CASES[case]
    moved = np.moveaxis(t, axis, 0)
    eight_bit = case.startswith("8-bit")
    types = [s for s in SWEEP_TYPES if s.width == 8] if eight_bit else SWEEP_TYPES[::3]
    for ntype in types:
        v = _for_type(t, ntype)
        slices = np.moveaxis(v, axis, 0)
        want = [_plain_sweep(s.ravel(), ntype)[0] for s in slices]
        reference = np.empty_like(v)  # one per-tensor fake_quantize per slice
        for s, scale, out in zip(slices, want, np.moveaxis(reference, axis, 0)):
            out[...] = fake_quantize(s, QuantScheme(ntype, np.array([scale])))
        # the module's block size; several 8-bit rows per block; one row per
        # block and a few candidates per re-score chunk
        for block in (selector_mod._BLOCK_ELEMENTS, 4 * ROW_8BIT, 100):
            monkeypatch.setattr(selector_mod, "_BLOCK_ELEMENTS", block)
            if eight_bit:
                assert len(moved) > 2 * max(1, block // ROW_8BIT)
            scheme, err, deg = argmin_mse_scale(v, ntype, axis=axis)
            assert scheme.scales.tolist() == want, (ntype.name, block)
            assert err == mse(reference, v), (ntype.name, block)
            assert deg == any(not np.any(s) for s in slices)


LONG_ROW_CASES = {
    # One row of three full column chunks and a partial one.
    "per-tensor": (lambda block: np.random.default_rng(21).laplace(size=3 * block + 17), None),
    # Two channels of one full chunk and five values more.
    "per-channel": (lambda block: _channels((2, block + 5), 0, 22), 0),
}


@pytest.mark.parametrize("rescore_every_step", [False, True], ids=["near-best", "every-step"])
@pytest.mark.parametrize("case", LONG_ROW_CASES)
def test_long_rows_rescored_in_column_chunks(monkeypatch, case, rescore_every_step):
    # A row longer than _BLOCK_ELEMENTS is re-scored in column chunks into
    # one row of squared errors.  Each row's scale and re-scored MSE must be
    # the plain sweep's bit for bit, and each type's MSE that of its scheme.
    # Equal prefix-sum scores send every step of every row to the re-score.
    # Near the best, a row of several left with one step would take it
    # unscored, so every row's first step is kept too (an unbounded score):
    # every row keeps two steps or more and runs the chunks.
    make, axis = LONG_ROW_CASES[case]
    t = make(selector_mod._BLOCK_ELEMENTS)
    real_scores = selector_mod._sweep_scores

    def scores(v, types, scales):
        if rescore_every_step:
            return [(np.zeros(s.shape),) * 2 for s in scales]
        scored = real_scores(v, types, scales)
        for _, bound in scored:
            bound[:, 0] = np.inf
        return scored

    monkeypatch.setattr(selector_mod, "_sweep_scores", scores)
    rows = t.reshape(1, -1) if axis is None else t
    want = [[_plain_sweep(row, ntype) for row in rows] for ntype in CANDS]
    found, _ = selector_mod._best_scales(rows, CANDS)
    for ntype, (scales, errs), w in zip(CANDS, found, want):
        assert list(zip(scales.tolist(), errs.tolist())) == w, ntype.name
    if not rescore_every_step:
        monkeypatch.undo()  # the search itself runs on the real scores
    sel = select_type(t, CANDS, axis)
    for ntype, (scheme, err), w in zip(CANDS, selector_mod._search(t, CANDS, axis)[0], want):
        assert scheme.scales.tolist() == [scale for scale, _ in w], ntype.name
        assert err == mse(fake_quantize(t, scheme), t) == sel.per_candidate_mse[ntype.name]


def test_select_type_holds_a_long_row_whole_in_one_array_at_a_time():
    # A row longer than _BLOCK_ELEMENTS is held at full length first sorted,
    # which becomes its own prefix sum, then as one row of squared errors in
    # the re-score; every other temporary stays under _BLOCK_ELEMENTS.
    n = 4 * selector_mod._BLOCK_ELEMENTS
    t = np.random.default_rng(23).laplace(size=n)
    tracemalloc.start()
    try:
        select_type(t, CANDS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * t.itemsize


# ---------------------------------------------------------------------------
# Type selection
# ---------------------------------------------------------------------------

def test_select_type_reports_all_candidates():
    rng = np.random.default_rng(3)
    sel = select_type(rng.normal(size=500), CANDS)
    assert set(sel.per_candidate_mse) == {"int4", "pot4", "flint4"}
    assert sel.mse_value == min(sel.per_candidate_mse.values())
    assert sel.per_candidate_mse[sel.ntype.name] == sel.mse_value


def test_select_type_uniform_prefers_int():
    rng = np.random.default_rng(4)
    sel = select_type(rng.uniform(-1, 1, size=4000), CANDS)
    assert sel.ntype.kind == "int"


def test_select_type_heavy_tails_prefer_flint():
    # A bell shape whose tails carry outliers: 5% of a normal scaled x4.
    # Plain Laplace data is a coin toss between flint and int at 4 bits.
    rng = np.random.default_rng(5)
    t = rng.standard_normal(4000)
    t[rng.random(4000) < 0.05] *= 4
    sel = select_type(t, CANDS)
    assert sel.ntype.kind == "flint"


def test_select_type_cubed_normal_prefers_pot():
    # Outlier-dominated tensors favor the widest dynamic range.  A cubed
    # normal ties pot with flint at 4 bits, so the input is Student-t with
    # 2 degrees of freedom, whose heavier tails give pot a clear win.
    rng = np.random.default_rng(0)
    t = rng.standard_t(2, size=10000)
    sel = select_type(t, CANDS)
    assert sel.ntype.kind == "pot"


def test_select_type_drops_unsigned_on_negative_input():
    unsigned = make_candidates(("int", "flint"), 4, signed=False)
    sel = select_type(np.array([0.5, 1.0]), unsigned + [INT4])
    assert not sel.ntype.signed or sel.ntype is INT4  # unsigned allowed here
    with pytest.raises(QuantizationError):
        select_type(np.array([-1.0, 1.0]), unsigned)


def test_select_type_negative_input_keeps_signed_only():
    mixed = make_candidates(("int",), 4, signed=False) + CANDS
    sel = select_type(np.array([-3.0, 1.0, 2.0]), mixed)
    assert sel.ntype.signed
    assert "int4" in sel.per_candidate_mse  # the signed int candidate ran


ALL_TYPES = [NumericType(k, w, s) for k in KINDS for w in range(3, 9) for s in (False, True)]
MIXED = [NumericType(k, w)  # grids of 15 to 256 values
         for k, w in (("int", 4), ("pot", 4), ("flint", 4), ("float", 4), ("int", 8))]


def _with_zero_row():
    t = _channels((6, 20), 0, 12)
    t[4] = 0.0
    return t


# (tensor, axis).  Channels of 20 values or fewer are scored directly for
# every type; 400-value ones directly for 7- and 8-bit types, and from
# prefix sums, over several blocks, for the others.
SHARED_SORT_CASES = {
    "per-tensor": (np.random.default_rng(13).laplace(size=(20, 15)), None),
    "per-channel": (_channels((4, 10), 1, 14), 1),
    "per-channel over several blocks": (_channels((30, 12), 0, 15), 0),
    "all-zero row": (_with_zero_row(), 0),
    "per-channel on both sides of the direct rule": (_channels((20, 400), 0, 16), 0),
}


def _check_select_type_matches_one_type_searches(t, axis, types):
    sel = select_type(t, types, axis)
    effective = [c for c in types if c.signed or not np.any(t < 0)]
    found, deg = selector_mod._search(t, effective, axis)
    assert list(sel.per_candidate_mse) == [c.name for c in effective]
    for ntype, (scheme, err) in zip(effective, found):
        want, want_err, want_deg = argmin_mse_scale(t, ntype, axis)
        assert (scheme.ntype, scheme.axis) == (want.ntype, want.axis)
        assert scheme.scales.tolist() == want.scales.tolist(), ntype.name
        assert err == want_err == sel.per_candidate_mse[ntype.name], ntype.name
        assert deg == want_deg == sel.degenerate
    errs = [err for _, err in found]
    assert sel.ntype == effective[errs.index(min(errs))]  # ties keep the earlier type
    assert sel.scheme.scales.tolist() == found[errs.index(min(errs))][0].scales.tolist()


@pytest.mark.parametrize("case", SHARED_SORT_CASES)
def test_select_type_matches_one_type_search_for_every_type(case):
    # One search sorts each row once for all candidates; every type's
    # scales and MSE must still be those of a search for that type alone.
    t, axis = SHARED_SORT_CASES[case]
    _check_select_type_matches_one_type_searches(np.abs(t), axis, ALL_TYPES)
    _check_select_type_matches_one_type_searches(t, axis, ALL_TYPES)  # signed ones only


@pytest.mark.parametrize("case", SHARED_SORT_CASES)
def test_select_type_mixed_grid_sizes_match_plain_sweep(case):
    t, axis = SHARED_SORT_CASES[case]
    _check_select_type_matches_one_type_searches(t, axis, MIXED)
    found, _ = selector_mod._search(t, MIXED, axis)
    slices = [t] if axis is None else list(np.moveaxis(t, axis, 0))
    for ntype, (scheme, _) in zip(MIXED, found):
        want = [_plain_sweep(s.ravel(), ntype)[0] for s in slices]
        assert scheme.scales.tolist() == want, ntype.name


def _count_sorts(monkeypatch):
    """The row count of every ``np.sort`` call from now on."""
    sorted_rows = []
    real_sort = np.sort

    def counting_sort(a, *args, **kwargs):
        sorted_rows.append(len(a))
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    return sorted_rows


def _blocks(rows, block):
    return [block] * (rows // block) + [rows % block] * (rows % block > 0)


LONG_ROWS = _channels((30, 1600), 0, 15)  # prefix-scored by every type up to 8 bits


@pytest.mark.parametrize("types", [[INT4], CANDS, MIXED, MIXED[::-1], [selector_mod.INT8]],
                         ids=lambda ts: ",".join(t.name for t in ts))
def test_select_type_sorts_each_block_once(monkeypatch, types):
    # The sort and prefix sums of a block do not depend on the type: one
    # select_type call sorts each block once, whatever the number of
    # candidates, in blocks sized for the cuts of all of them.
    t = LONG_ROWS
    cells = max(c.grid().size for c in types) + 1
    assert t.shape[1] >= selector_mod._DIRECT_VALUES_PER_CELL * cells
    sorted_rows = _count_sorts(monkeypatch)
    select_type(t, types, axis=0)
    block = selector_mod._BLOCK_ELEMENTS // max(t.shape[1], 81 * sum(c.thresholds().size
                                                                     for c in types))
    assert sorted_rows == _blocks(len(t), block)
    sorted_rows.clear()
    select_type(t, types)
    assert sorted_rows == [1]  # per-tensor: one row


def test_select_type_sorts_only_for_prefix_scored_types(monkeypatch):
    # Rows scored directly are never sorted, and the blocks are sized for
    # the cuts of the prefix-scored types alone.
    sorted_rows = _count_sorts(monkeypatch)
    select_type(SHARED_SORT_CASES["per-channel over several blocks"][0], MIXED, axis=0)
    assert sorted_rows == []  # 12 values per row: every type is scored directly
    t = _channels((30, 400), 0, 16)  # int8 scores 400-value rows directly, 4-bit types do not
    select_type(t, MIXED, axis=0)
    cuts = sum(c.thresholds().size for c in MIXED if c.width == 4)
    assert sorted_rows == _blocks(len(t), selector_mod._BLOCK_ELEMENTS // (81 * cuts))


class _PrefixScored(Exception):
    pass


@pytest.mark.parametrize("ntype", [INT4, selector_mod.INT8], ids=lambda t: t.name)
def test_row_length_picks_the_scoring_path(monkeypatch, ntype):
    # Rows under _DIRECT_VALUES_PER_CELL values per grid cell never reach the
    # prefix-sum scores; rows of that many values or more always do.
    def refuse(v, types, scales):
        raise _PrefixScored

    monkeypatch.setattr(selector_mod, "_sweep_scores", refuse)
    edge = selector_mod._DIRECT_VALUES_PER_CELL * (ntype.grid().size + 1)
    short = [edge - 1, 512] if ntype.width == 8 else [edge - 1]
    for n in short:
        t = _channels((3, n), 0, n)
        scheme, _, _ = argmin_mse_scale(t, ntype, axis=0)
        assert scheme.scales.tolist() == [_plain_sweep(row, ntype)[0] for row in t]
    for n in (edge, 8 * 257 + 1):
        with pytest.raises(_PrefixScored):
            argmin_mse_scale(_channels((3, n), 0, n), ntype, axis=0)


# ---------------------------------------------------------------------------
# Clipping bounds of the direct path
# ---------------------------------------------------------------------------

BOUND_TYPES = [selector_mod.INT8, INT4, NumericType("pot", 4), NumericType("flint", 4)]
BOUND_TYPES += [NumericType(t.kind, t.width, signed=False) for t in BOUND_TYPES]


def _bound_row(dist, rng, n):
    if dist == "normal":
        return rng.standard_normal(n)
    if dist == "laplace":
        return rng.laplace(size=n)
    if dist == "student_t1":
        return rng.standard_t(1, n)
    if dist == "two-point":
        return rng.choice(rng.standard_normal(2), n)
    return np.full(n, rng.standard_normal())  # constant


def _sweep_of(row, ntype):
    """The row's scales at every sweep step, as the search computes them."""
    top = float(np.max(np.abs(row))) or 1.0
    first = int(round(DEFAULT_SWEEP_STEPS * DEFAULT_MIN_CLIP_RATIO))
    return top * np.arange(first, DEFAULT_SWEEP_STEPS + 1) / DEFAULT_SWEEP_STEPS / ntype.max_value()


def _kept_steps(row, ntype):
    """The steps of one row that its clipping bounds leave to the re-score."""
    bounds = selector_mod._clip_bounds(np.array([row.max()]), np.array([row.min()]), row.size,
                                       ntype, _sweep_of(row, ntype)[None])
    return selector_mod._may_be_least(*bounds)[0]


def _brute_force(row, ntype):
    return np.array([mse(fake_quantize(row, QuantScheme(ntype, np.array([s]))), row)
                     for s in _sweep_of(row, ntype)])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 1600),
       dist=st.sampled_from(["normal", "laplace", "student_t1", "two-point", "constant"]),
       seed=st.integers(0, 2**32 - 1), magnitude=st.integers(-3, 3))
def test_clip_bounds_drop_only_steps_above_the_minimum(n, dist, seed, magnitude):
    # The bounds hold for any row length, so rows past the direct path's
    # lengths are checked too.
    row = _bound_row(dist, np.random.default_rng(seed), n) * 10.0 ** magnitude
    for ntype in BOUND_TYPES:
        v = _for_type(row, ntype)
        kept, exact = _kept_steps(v, ntype), _brute_force(v, ntype)
        assert np.all(exact[~kept] > exact.min()), ntype.name
        assert kept[np.argmin(exact)], ntype.name


def _adversarial_rows(ntype):
    n = selector_mod._DIRECT_VALUES_PER_CELL * (ntype.grid().size + 1) - 1  # longest direct row
    rng = np.random.default_rng(31)
    scale = 3.0 * 57 / 100 / ntype.max_value()  # a step's scale at max|v| 3
    on = np.concatenate([ntype.grid(), ntype.thresholds()]) * scale
    return {
        "on grid points and thresholds": np.append(rng.choice(on[np.abs(on) < 3.0], n - 1), 3.0),
        "one outlier": np.append(rng.standard_normal(n - 1) * 1e-3, 1.0),
        # Step 0 clips max|v| by 0.8 of itself, more than the other values of
        # a short row win back, so this row's minimum is at step 0 because
        # every squared error underflows: all 81 steps tie at 0.
        "minimum at step 0": rng.laplace(size=n) * 1e-165,
        "scaled by 1e-160": rng.laplace(size=n) * 1e-160,
        "scaled by 1e150": rng.laplace(size=n) * 1e150,
        "all zero": np.zeros(n),
        "single value": np.array([-2.5]),
    }


@pytest.mark.parametrize("ntype", BOUND_TYPES, ids=lambda t: t.name)
def test_clip_bounded_search_matches_plain_sweep_on_adversarial_rows(ntype):
    rows = {name: _for_type(row, ntype) for name, row in _adversarial_rows(ntype).items()}
    assert np.argmin(_brute_force(rows["minimum at step 0"], ntype)) == 0
    for name in ("minimum at step 0", "scaled by 1e-160"):  # the squares underflow
        assert _kept_steps(rows[name], ntype).all(), name
    for name, row in rows.items():
        scheme, err, _ = argmin_mse_scale(row, ntype)
        assert (scheme.scales[0], err) == _plain_sweep(row, ntype), name
    t = np.stack([row for row in rows.values() if row.size > 1])  # as channels of one tensor
    scheme, err, deg = argmin_mse_scale(t, ntype, axis=0)
    want = [_plain_sweep(row, ntype)[0] for row in t]
    assert scheme.scales.tolist() == want
    assert err == mse(fake_quantize(t, QuantScheme(ntype, np.array(want), axis=0)), t)
    assert deg


@pytest.mark.parametrize("ntype", BOUND_TYPES, ids=lambda t: t.name)
def test_clip_bounds_keep_every_step_where_the_squares_overflow(ntype):
    n = selector_mod._DIRECT_VALUES_PER_CELL * (ntype.grid().size + 1) - 1  # longest direct row
    row = _for_type(np.random.default_rng(37).laplace(size=n) * 1e154, ntype)
    assert _kept_steps(row, ntype).all()
    with np.errstate(over="ignore"):  # the sums of squares overflow, some at every step
        scheme, err, _ = argmin_mse_scale(row, ntype)
        exact = _brute_force(row, ntype)
    # The earliest least MSE wins, also when every step's MSE is inf.
    assert (scheme.scales[0], err) == (_sweep_of(row, ntype)[np.argmin(exact)], exact.min())


# ---------------------------------------------------------------------------
# Adversarial rows for both rounding bounds
# ---------------------------------------------------------------------------

ROUNDING_TYPES = [INT4, NumericType("pot", 4), NumericType("flint", 4), selector_mod.INT8]
EPS, TINY = Fraction(np.finfo(np.float64).eps), Fraction(np.finfo(np.float64).tiny)


def _rounding_row(ntype, seed, top, steps, picks, ulps, counts, both_signs):
    """A row of max|v| ``top`` (``counts[0]`` more copies of it), where the
    rounding errs most: ``counts[1]`` values on threshold * scale of the
    sweep steps ``steps``, moved by ``ulps`` ulps, for the thresholds
    ``picks`` (wrapping, so -1 is the top one); ``counts[2]`` on grid *
    scale there, whose error vanishes under terms of size M; ``counts[3]``
    over the six decades below ``top``, so the by-parts sum cancels hard.
    At most 4096 values in all."""
    rng = np.random.default_rng(seed)
    scales = top * np.asarray(steps) / DEFAULT_SWEEP_STEPS / ntype.max_value()
    n_top, n_edge, n_grid, n_mixed = counts
    edge = ntype.thresholds().take(rng.choice(picks, n_edge), mode="wrap")
    edge *= rng.choice(scales, n_edge)
    off = rng.choice(ulps, n_edge)
    edge = np.where(off == 0, edge, np.nextafter(edge, np.copysign(np.inf, off)))
    grid = ntype.grid()[rng.integers(ntype.grid().size, size=n_grid)] * rng.choice(scales, n_grid)
    mixed = top * 10.0 ** rng.uniform(-6.0, 0.0, n_mixed)
    row = rng.permutation(np.concatenate([np.full(n_top + 1, top), edge, grid, mixed])[:4096])
    return row * rng.choice([-1.0, 1.0], row.size) if both_signs else np.abs(row)


def _rounding_ratios(row, ntype):
    """Checks both bounds at every step of the row's sweep against
    ``mse(fake_quantize(...))``; returns, exactly, the largest |estimate -
    MSE| / bound of ``_sweep_scores``, and the largest distance by which
    the MSE passes the unrounded [lower, upper] of ``_clip_bounds``' own
    derivation, over its margin ``eps (n + 16) 2 R**2 + tiny``."""
    scales = _sweep_of(row, ntype)
    exact = _brute_force(row, ntype)
    [(est, bound)] = selector_mod._sweep_scores(row[None], [ntype], [scales[None]])
    low, high = selector_mod._clip_bounds(np.array([row.max()]), np.array([row.min()]), row.size,
                                          ntype, scales[None])
    est, bound, low, high = est[0], bound[0], low[0], high[0]
    assert np.all(np.abs(est - exact) <= bound)
    assert np.all(low <= exact) and np.all(exact <= high)
    sweep = max(abs(Fraction(e) - Fraction(m)) / Fraction(b) for e, m, b in zip(est, exact, bound))
    grid = ntype.grid()
    gap, reach = Fraction(float(np.max(np.diff(grid)))), Fraction(float(np.max(np.abs(grid))))
    hi, lo, n = Fraction(float(row.max())), Fraction(float(row.min())), row.size
    clip = []
    for s, m in zip(scales, map(Fraction, exact)):
        over = max(hi - Fraction(grid[-1] * s), Fraction(0))  # g * s as fake_quantize takes it
        under = max(Fraction(grid[0] * s) - lo, Fraction(0))
        lower, upper = (over**2 + under**2) / n, max(over, under, gap * Fraction(s) / 2) ** 2
        margin = EPS * (n + 16) * 2 * (max(hi, -lo) + reach * Fraction(s)) ** 2 + TINY
        clip.append(max(m - upper, lower - m) / margin)
    return sweep, max(clip)


@pytest.mark.parametrize("ntype", ROUNDING_TYPES, ids=lambda t: t.name)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), top=st.floats(1e-3, 1e3),
       steps=st.lists(st.integers(20, 100), min_size=1, max_size=4),
       picks=st.lists(st.integers(-128, 127), min_size=1, max_size=4),
       ulps=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=3),
       counts=st.tuples(*[st.integers(0, 4095)] * 4), both_signs=st.booleans())
# Copies of max|v|, clipped at every step below 100: each squared error is
# the one the upper bound takes, and their mean can round past it.
@example(seed=0, top=1.7, steps=[100], picks=[0], ulps=[0], counts=(6, 0, 0, 0),
         both_signs=False)
# Values on the top threshold at step 100: each error is half the largest
# gap, the bound's h s / 2 (the top gap of pot4 and flint4 is the largest).
@example(seed=0, top=1.7, steps=[100], picks=[-1], ulps=[0], counts=(0, 200, 0, 0),
         both_signs=False)
def test_rounding_bounds_hold_on_adversarial_rows(ntype, seed, top, steps, picks, ulps, counts,
                                                  both_signs):
    row = _rounding_row(ntype, seed, top, steps, picks, ulps, counts, both_signs)
    sweep, clip = _rounding_ratios(row, ntype)
    target(float(sweep), label="sweep error / bound")
    target(float(clip), label="clip excess / margin")


def _count_rescored_scales(monkeypatch):
    """Every scale ``fake_quantize`` is called with from now on."""
    rescored = []
    real_fake_quantize = selector_mod.fake_quantize

    def counting_fake_quantize(x, scheme):
        rescored.extend(scheme.scales.tolist())
        return real_fake_quantize(x, scheme)

    monkeypatch.setattr(selector_mod, "fake_quantize", counting_fake_quantize)
    return rescored


def test_clip_bounds_leave_few_int8_steps_to_rescore(monkeypatch):
    # 512-value rows take the direct path at int8, and the bounds leave at
    # most 20 of each row's 81 steps to the exact re-score.
    rows = np.random.default_rng(41).laplace(size=(8, 512))
    rescored = _count_rescored_scales(monkeypatch)
    [(scales, _)], _ = selector_mod._best_scales(rows, [selector_mod.INT8])
    for row, scale in zip(rows, scales):
        assert np.count_nonzero(np.isin(_sweep_of(row, selector_mod.INT8), rescored)) <= 20
        assert scale == _plain_sweep(row, selector_mod.INT8)[0]


def test_a_row_left_one_step_takes_it_unscored_only_among_several(monkeypatch):
    # A single positive value leaves only its last step (clip ratio 1, error
    # 0).  Among several rows it is taken unscored, its MSE NaN (the caller
    # takes the MSE of the whole scheme); a lone row is re-scored, since its
    # score is the search's MSE.
    rescored = _count_rescored_scales(monkeypatch)
    rows = np.array([[2.5], [1.0]])
    [(scales, errs)], _ = selector_mod._best_scales(rows, [selector_mod.INT8])
    assert rescored == [] and np.isnan(errs).all()
    assert scales.tolist() == [_plain_sweep(row, selector_mod.INT8)[0] for row in rows]
    [(scales, errs)], _ = selector_mod._best_scales(rows[:1], [selector_mod.INT8])
    assert rescored == scales.tolist()
    assert (scales[0], errs[0]) == _plain_sweep(rows[0], selector_mod.INT8)
    scheme, err, _ = argmin_mse_scale(rows, selector_mod.INT8, axis=0)
    assert err == mse(fake_quantize(rows, scheme), rows) == 0.0


def test_an_all_zero_row_adds_no_rescored_steps(monkeypatch):
    # An all-zero row's scale (1.0) and MSE (0) are the same at every step,
    # so it keeps only its first, which among several rows goes unscored.
    rows = np.random.default_rng(43).laplace(size=(4, 512))
    zeroed = rows.copy()
    zeroed[1] = 0.0
    rescored = _count_rescored_scales(monkeypatch)
    argmin_mse_scale(rows, selector_mod.INT8, axis=0)
    plain = len(rescored)
    scheme, err, degenerate = argmin_mse_scale(zeroed, selector_mod.INT8, axis=0)
    assert len(rescored) - plain <= plain
    assert scheme.scales.tolist() == [_plain_sweep(row, selector_mod.INT8)[0] for row in zeroed]
    assert err == mse(fake_quantize(zeroed, scheme), zeroed) and degenerate


@pytest.mark.parametrize("magnitude", [1e153, 1e154])
def test_huge_values_search_without_a_warning(magnitude):
    # The prefix scores, the re-score and the scheme's MSE overflow (every
    # MSE is inf at 1e154); each inf or NaN keeps its steps, and the suite
    # turns any warning into an error.
    t = np.random.default_rng(47).laplace(size=500) * magnitude
    channels = t.reshape(4, 125)
    with np.errstate(over="ignore"):  # the earliest least MSE, also when every one is inf
        exact = [_brute_force(row, INT4) for row in (t, *channels)]
        want_scales = [_sweep_of(row, INT4)[np.argmin(e)] for row, e in zip(channels, exact[1:])]
        want_scheme = QuantScheme(INT4, np.array(want_scales), axis=0)
        want_err = mse(fake_quantize(channels, want_scheme), channels)
        plain = _plain_sweep(t, INT4)
    scheme, err, _ = argmin_mse_scale(t, INT4)
    assert (scheme.scales[0], err) == (_sweep_of(t, INT4)[np.argmin(exact[0])], exact[0].min())
    assert (scheme.scales[0], err) == plain
    scheme, err, _ = argmin_mse_scale(channels, INT4, axis=0)
    assert (scheme.scales.tolist(), err) == (want_scales, want_err)
    chosen = select_type(channels, CANDS, axis=0)
    assert chosen.per_candidate_mse == {
        c.name: argmin_mse_scale(channels, c, axis=0)[1] for c in CANDS}


def test_ntype_json_roundtrip():
    for t in CANDS + [NumericType("float", 4, True, (2, 1))]:
        assert ntype_from_json(ntype_to_json(t)) == t


# ---------------------------------------------------------------------------
# Mixed precision
# ---------------------------------------------------------------------------

def test_plan_defaults_to_all_4bit():
    plan = plan_mixed_precision(_layers(), CANDS)
    assert all(l.width == 4 for l in plan.layers)
    assert plan.promotion_order == []


def test_plan_on_huge_values_warns_nothing():
    # The weight's power overflows at 1e154 (the suite turns a warning into
    # an error); it is inf, as is the weight's MSE, so the layer's value is
    # inf / inf.
    rng = np.random.default_rng(47)
    weight = rng.laplace(size=500).reshape(4, 125) * 1e154
    plan = plan_mixed_precision([LayerTensors("huge", weight, rng.standard_normal(256))], CANDS)
    assert np.isnan(plan.layers[0].normalized_mse)


def test_plan_promotes_worst_layer_first():
    layers = _layers()
    plan = plan_mixed_precision(layers, CANDS, threshold=0.0, max_promotions=1)
    base = plan_mixed_precision(layers, CANDS)
    worst = max(base.layers, key=lambda l: l.normalized_mse).layer_id
    assert plan.promotion_order == [worst]
    widths = {l.layer_id: l.width for l in plan.layers}
    assert widths[worst] == 8
    assert sum(1 for w in widths.values() if w == 8) == 1


def test_plan_promotion_reduces_aggregate_mse():
    layers = _layers()
    prev = plan_mixed_precision(layers, CANDS).aggregate_mse
    for budget in range(1, len(layers) + 1):
        cur = plan_mixed_precision(layers, CANDS, threshold=0.0, max_promotions=budget)
        assert cur.aggregate_mse < prev
        prev = cur.aggregate_mse


def test_plan_threshold_stops_promotion():
    layers = _layers()
    base = plan_mixed_precision(layers, CANDS)
    plan = plan_mixed_precision(layers, CANDS, threshold=base.aggregate_mse)
    assert plan.promotion_order == []
    tight = plan_mixed_precision(layers, CANDS, threshold=base.aggregate_mse * 0.5)
    assert len(tight.promotion_order) >= 1
    assert tight.aggregate_mse <= base.aggregate_mse * 0.5 or len(
        tight.promotion_order
    ) == len(layers)


def test_plan_exhaustion_terminates():
    plan = plan_mixed_precision(_layers(), CANDS, threshold=0.0)
    assert all(l.width == 8 for l in plan.layers)
    assert len(plan.promotion_order) == len(plan.layers)


def test_plan_worker_count_does_not_change_result(monkeypatch):
    layers = _layers(seed=9)
    plans = []
    for cpus in (1, 4):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        plans.append(plan_mixed_precision(layers, CANDS, threshold=0.0, max_promotions=2).to_json())
    assert plans[0] == plans[1]


def test_plan_json_lists_four_bit_candidates_of_promoted_layers_only():
    layers = _layers()
    four_bit = {l["layerId"]: l for l in plan_mixed_precision(layers, CANDS).to_json()["layers"]}
    docs = plan_mixed_precision(layers, CANDS, threshold=0.0, max_promotions=1).to_json()["layers"]
    assert sorted(doc["width"] for doc in docs) == [4, 4, 4, 8]
    for doc in docs:
        if doc["width"] == 4:
            assert "fourBitCandidates" not in doc
        else:
            base = four_bit[doc["layerId"]]
            assert doc["fourBitCandidates"] == {
                "weight": base["weightType"]["perCandidateMse"],
                "activation": base["activationType"]["perCandidateMse"],
            }


def test_plan_promoted_layers_use_int8():
    plan = plan_mixed_precision(_layers(), CANDS, threshold=0.0, max_promotions=2)
    for layer in plan.layers:
        if layer.width == 8:
            assert layer.weight.ntype.name == "int8"
            assert layer.activation.ntype.width == 8
            assert layer.weight_4bit is not None


def test_plan_unsigned_activations_get_unsigned_candidates():
    plan = plan_mixed_precision(_layers(), CANDS)
    for layer in plan.layers:  # activations are abs() in the fixture
        assert not layer.activation.ntype.signed
