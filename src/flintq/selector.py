"""MSE-driven scale search, per-tensor type selection, and the layer-wise
mixed-precision promotion loop.

Scale search sweeps linear clipping ratios of the max-abs value and keeps
the scale with the lowest quantization MSE.  Every step of every slice
gets bounds on its MSE, and only the steps that may hold the slice's
minimum are quantized and scored exactly.  A slice with fewer than
``_DIRECT_VALUES_PER_CELL`` values per grid cell of a type is bounded from
its largest and smallest values alone; longer slices are sorted once for
all such types, cut by one ``searchsorted`` of the thresholds times each
scale, and scored from each row's one prefix sum within a rounding bound.
In a per-channel search a slice left with one step takes it unscored.
Type selection runs one scale search for all candidate types and keeps
the winner.  The promotion loop selects every layer's 4-bit types on one
thread, in model order, and promotes the worst layer (by normalized MSE)
to 8-bit int until the aggregate normalized MSE meets a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .qtypes import (INT8, NumericType, QuantScheme, QuantizationError, check_axis,
                     fake_quantize, mse)

# The scale search sweeps clip ratios from DEFAULT_MIN_CLIP_RATIO to 1 of
# max|v| in steps of 1 / DEFAULT_SWEEP_STEPS.
DEFAULT_SWEEP_STEPS = 100
DEFAULT_MIN_CLIP_RATIO = 0.2

# The kinds selected among by default; float, the fixed-float baseline,
# is a candidate only when asked for.
DEFAULT_CANDIDATES = ("int", "pot", "flint")


@dataclass
class SelectionResult:
    ntype: NumericType
    scheme: QuantScheme
    mse_value: float
    per_candidate_mse: dict[str, float]
    degenerate: bool = False  # all-zero tensor, scale fell back to 1.0

    def to_json(self) -> dict:
        return {
            "ntype": ntype_to_json(self.ntype),
            "scales": self.scheme.scales.tolist(),
            "axis": self.scheme.axis,
            "mse": self.mse_value,
            "perCandidateMse": self.per_candidate_mse,
            "degenerate": self.degenerate,
        }


def ntype_to_json(t: NumericType) -> dict:
    return {
        "kind": t.kind,
        "width": t.width,
        "signed": t.signed,
        "floatSplit": list(t.float_split) if t.float_split else None,
    }


def ntype_from_json(d: dict) -> NumericType:
    split = d.get("floatSplit")
    return NumericType(d["kind"], d["width"], d["signed"], tuple(split) if split else None)


def _sweep_scores(
    v: np.ndarray, ntypes: Sequence[NumericType], scales: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Quantization MSE of every row of ``v`` under each type ``ntypes[i]``
    at each of that row's scales (``scales[i][r]``), all from one sort of
    the rows, and a bound on how far each figure may lie from
    ``mse(fake_quantize(...))`` of the row; one (MSE, bound) pair per type.

    Each sorted row is cut at ``threshold * scale``, the cuts ``c_j`` (j = 1
    .. G-1, G grid values g) counting the values below each threshold, and
    every type's cuts are searched before the row turns into its own prefix
    sum P1 in place.  Summed by parts, the squared error of the row is then
    ``sum v**2 - 2 d_top P1(n) + n d_top**2 + 2 s sum_j dg_j P1(c_j) -
    s**2 sum_j d(g**2)_j c_j`` with s the scale, n the row length, d_top =
    g_top * s and dg, d(g**2) the differences of neighbouring grid values
    and of their squares (exact here: every grid value has few
    significant bits).  Each term may be as large as M = sum v**2 + 2 D
    sum|v| + n D**2, D the largest |g * s|, and they cancel down to the
    error, so the rounding is bounded against M:

    * ``quantize`` compares ``v / scale`` with the threshold; both round
      once, so a value may land in the cell next to its own only when its
      quotient lies within u|t| of threshold t (u the unit roundoff), and t
      lies within one ulp of the midpoint of its two grid values, which
      moves its squared error by at most ``3 u D**2``: 3uM in all;
    * the sum uses g * s unrounded where ``dequantize`` rounds it: 2uM;
    * sum v**2 is off by at most n u sum v**2, and each P1 by n u sum|v|,
      so the P1 terms by (3n + 2G + 1) u 2D sum|v| with the products and
      the sum over j; the d_top**2 and c_j terms by (2G + 8) u n D**2;
      adding the five terms and dividing by n: 13uM; the MSE itself rounds
      by (n + 4) u M.

    To first order the two figures differ by at most ``(4n + 2G + 23) u M /
    n`` (no underflow); the bound returned, ``eps (8n + 2G + 32) M / n``,
    is over twice that.  Sum|v| is read off P1 at the sign change, its
    minimum.

    The cuts of a row are searched threshold-major: each threshold times
    every scale of the row, one after the other, so the needles of one
    threshold run one way along the sweep and ``searchsorted`` starts each
    search from the previous one's bracket.  The needles are the products
    ``threshold * scale`` whatever the order, so the cuts are too.  The
    sorted rows, which become their prefix sums, are the only arrays as
    long as the rows.
    """
    xs = np.sort(v, axis=1)
    rows, n = xs.shape
    sq_sum = np.einsum("ij,ij->i", xs, xs)[:, None]  # no squared copy of the rows, no BLAS
    cuts = [np.empty(sc.shape + (t.thresholds().size,), dtype=np.int64)
            for t, sc in zip(ntypes, scales)]
    for r in range(rows):  # searchsorted takes one sorted array at a time
        for ntype, sc, c in zip(ntypes, scales, cuts):
            c[r] = np.searchsorted(xs[r], ntype.thresholds()[:, None] * sc[r]).T
    p1 = np.cumsum(xs, axis=1, out=xs)
    total = p1[:, -1:]
    abs_sum = total - 2.0 * np.minimum(p1.min(axis=1, keepdims=True), 0.0)
    before_row = np.arange(-1, rows * n - 1, n)[:, None, None]  # P1(c) is p1[r, c - 1]
    scored = []
    for ntype, sc, c in zip(ntypes, scales, cuts):
        grid = ntype.grid()
        terms = np.multiply(c, np.diff(grid * grid))
        by_count = terms.sum(axis=-1)  # sum_j d(g**2)_j c_j
        empty = c == 0
        c += before_row
        np.take(p1, c, out=terms, mode="clip")  # P1 at every cut; P1(0) = 0 below
        terms[empty] = 0.0
        terms *= np.diff(grid)
        d_top = grid[-1] * sc  # as dequantize computes it
        est = (sq_sum - 2.0 * d_top * total + n * d_top * d_top
               + 2.0 * sc * terms.sum(axis=-1) - sc * sc * by_count) / n
        d_max = float(np.max(np.abs(grid))) * sc
        m_total = sq_sum + 2.0 * d_max * abs_sum + n * d_max * d_max
        scored.append((est, np.finfo(np.float64).eps * (8 * n + 2 * grid.size + 32) * m_total / n))
    return scored


def _clip_bounds(
    hi: np.ndarray, lo: np.ndarray, n: int, ntype: NumericType, scales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (low, high) on ``mse(fake_quantize(...))`` of rows of ``n``
    values at each of their scales (``scales[r]``), read off each row's
    largest and smallest values ``hi[r]`` and ``lo[r]`` alone: every step's
    computed MSE lies in [low, high].

    With s the scale, the grid running from g_bot to g_top with largest
    neighbouring gap h, and the extremes' clipping errors a = (hi -
    g_top s)+ and b = (g_bot s - lo)+:

    * ``lower = (a**2 + b**2) / n``.  A value above g_top s quantizes to the
      top grid value (its quotient lies far above the top threshold), which
      ``fake_quantize`` computes as g_top * s, as here; so ``a**2`` is bit
      for bit the squared error the re-score gives hi, and ``b**2`` the one
      it gives lo.  They are two of the n terms (one is zero when hi is lo),
      and no term is negative;
    * ``upper = max(a, b, h s / 2)**2``.  No value lies farther than that
      from its quantized value: one inside the grid's range lies within half
      a gap of its nearest grid value, one outside it no farther from the
      end value than the extreme on its side.

    The rounding, with u the unit roundoff and R = max|v| + D, D the
    largest |g s|: the re-score sums n nonnegative terms and divides by n,
    so its MSE is at least ``lower - (n + 2) u R**2``.  A value's quotient
    v / s, its threshold (within an ulp of a midpoint) and the rounded g s
    move its error at most 4uR past h s / 2, so its squared error, and so
    the MSE, is at most ``upper + (n + 16) u R**2``.  Subnormal results add
    at most a few times 2**-1075 to either side.  The margin, ``eps (n +
    16) M / n + tiny`` with M = 2 n R**2, is four times both plus the least
    normal number.  M is over twice any sum of squared errors, so if a sum
    overflows, M does, and the infinite margin keeps every step (its low is
    -inf or NaN).  Where R**2 is subnormal, every lower lies below the
    margin, so every step is kept too.  A step whose low lies above another
    step's high thus has the larger computed MSE: it is not the row's
    earliest minimum.
    """
    grid = ntype.grid()
    with np.errstate(over="ignore", invalid="ignore"):  # an inf margin keeps every step
        over = np.maximum(hi[:, None] - grid[-1] * scales, 0.0)  # g * s as fake_quantize takes it
        under = np.maximum(grid[0] * scales - lo[:, None], 0.0)
        lower = (over * over + under * under) / n
        upper = np.maximum(np.maximum(over, under), float(np.max(np.diff(grid))) / 2 * scales)
        upper *= upper
        reach = np.maximum(hi, -lo)[:, None] + float(np.max(np.abs(grid))) * scales
        m_total = 2 * n * reach * reach
        margin = np.finfo(np.float64).eps * (n + 16) * m_total / n + np.finfo(np.float64).tiny
        return lower - margin, upper + margin


def _may_be_least(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The steps of each row whose value, known to lie in [low, high], may
    be the row's least: low not above the least high.  A NaN compares
    False, so its step, or with a NaN high every step of its row, is kept."""
    return ~(low > np.min(high, axis=1, keepdims=True))


# Rows are swept in blocks, and re-scored in blocks and column chunks, whose
# temporaries hold at most this many elements, so memory stays bounded
# whatever the channel count or width: a block of sorted rows, or the cuts
# of every prefix-scored type at all 81 steps of its rows.  A longer row is
# held whole in one array at a time: sorted (then its own prefix sum), and
# then as one row of squared errors in the exact re-score.
_BLOCK_ELEMENTS = 1 << 15

# A type whose rows hold fewer than this many values per grid cell is scored
# directly: bounded from each row's extremes and quantized at the steps the
# bounds leave, which for a short row costs less than cutting it 81 times at
# every grid threshold.  Measured with the bounds on 16 and 64 Laplace rows
# (2-CPU Xeon, best of 15 alternating calls, 3 fresh interpreters), direct
# int8 scoring (257 cells) took 0.10-0.13x the prefix-sum time at 512 values
# per row, 0.21-0.24x at 1024, 0.26-0.40x at 1536, 0.35-0.56x at 2048 and
# 0.58-0.99x at 3072; int4, pot4 and flint4 together (17 cells) took
# 0.91-0.98x at 32 values, 1.10-1.15x at 48 and 1.17-1.39x at 64.  So int8
# breaks even past 12 values per cell, the 4-bit types near 2.  The switch
# stays at 6 for every width: at 3 or less the benchmark's warm-up, a
# 64-value selection, would take the prefix path and move the peak RSS of
# sim-datapath, a workload that selects nothing.
_DIRECT_VALUES_PER_CELL = 6


def _best_scales(
    rows: np.ndarray, ntypes: Sequence[NumericType]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], bool]:
    """Sweep clip ratios on every row of ``rows`` for every type of
    ``ntypes``; returns each type's (scale, MSE) per row, and whether any
    row was all-zero (its scale falls back to 1.0).

    Each step of each row gets bounds on its MSE, and only the steps whose
    lower bound is not above the row's least upper bound are re-scored
    exactly.  A type whose rows hold fewer than ``_DIRECT_VALUES_PER_CELL``
    values per grid cell (``grid().size + 1`` cells) is bounded from each
    row's two extremes (``_clip_bounds``); for the other types each block of
    rows is sorted once, and every step is scored from the rows' prefix
    sums within a rounding bound (``_sweep_scores``).  In a search of
    several rows, where the caller takes each type's MSE from its whole
    scheme, a row left with one step takes it unscored, its MSE NaN; an
    all-zero row keeps only its first step.  Either way each row's scale is
    that of a plain quantize/dequantize/mse sweep,
    ties keeping the earlier (smaller) scale, and each re-scored MSE is that
    sweep's too.

    The re-score copies each block of candidate rows into one buffer,
    reused by every type, and turns it into squared errors in place.  Each
    ``fake_quantize`` takes at most ``_BLOCK_ELEMENTS`` values: a block of
    short rows, or a column chunk of a longer row.  The mean of each buffer
    row is then the same reduction over the same values as ``mse`` of the
    whole row.
    """
    hi, lo = rows.max(axis=1), rows.min(axis=1)
    max_abs = np.maximum(hi, -lo)
    if not np.all(np.isfinite(max_abs)):
        raise QuantizationError("input tensor contains non-finite values")
    zero = max_abs == 0.0  # swept at max_abs 1.0, then given scale 1.0 and MSE 0
    steps = DEFAULT_SWEEP_STEPS
    ratios = np.arange(int(round(steps * DEFAULT_MIN_CLIP_RATIO)), steps + 1)
    top = np.where(zero, 1.0, max_abs)[:, None]
    sweeps = [top * ratios / steps / t.max_value() for t in ntypes]
    n = rows.shape[1]
    # The types scored from prefix sums; the others are bounded by their clipping.
    swept = [i for i, t in enumerate(ntypes) if n >= _DIRECT_VALUES_PER_CELL * (t.grid().size + 1)]
    maybe_best = [np.empty(s.shape, dtype=bool) if i in swept
                  else _may_be_least(*_clip_bounds(hi, lo, n, t, s))
                  for i, (t, s) in enumerate(zip(ntypes, sweeps))]
    if swept:
        cuts = sum(ntypes[i].thresholds().size for i in swept)  # per row and step
        block = max(1, _BLOCK_ELEMENTS // max(n, ratios.size * cuts))
        for b in range(0, len(rows), block):
            scored = _sweep_scores(rows[b:b + block], [ntypes[i] for i in swept],
                                   [sweeps[i][b:b + block] for i in swept])
            for i, (est, bound) in zip(swept, scored):
                maybe_best[i][b:b + block] = _may_be_least(est - bound, est + bound)
    for mb in maybe_best:  # an all-zero row's scale and MSE are fixed
        mb[zero] = np.arange(ratios.size) == 0
    # (row, step) of every candidate, row-major: each row's steps in sweep order.
    cands = [np.nonzero(mb) for mb in maybe_best]
    # A lone row's score is the search's MSE; of several rows, one left with
    # one step takes it unscored, as the caller scores the whole scheme.
    least = 2 if len(rows) > 1 else 1
    rescored = [np.flatnonzero(np.count_nonzero(mb, axis=1)[row] >= least)
                for mb, (row, _) in zip(maybe_best, cands)]
    block = max(1, min(_BLOCK_ELEMENTS // n, max(r.size for r in rescored)))
    sq_err = np.empty((block, n))  # one block of candidates' squared errors, for every type
    found = []
    for ntype, sweep, (row, step), todo in zip(ntypes, sweeps, cands, rescored):
        cand = sweep[row, step]
        cand_err = np.full(cand.size, np.nan)
        for b in range(0, todo.size, block):
            some = todo[b:b + block]
            scheme = QuantScheme(ntype, cand[some], axis=0)
            err = sq_err[:some.size]
            # A row longer than _BLOCK_ELEMENTS (alone in its block) goes in
            # column chunks.  Each chunk of err is contiguous, and mode="clip"
            # (every index is in range) lets take write into it unbuffered.
            for c in range(0, n, _BLOCK_ELEMENTS):
                x = np.take(rows[:, c:c + _BLOCK_ELEMENTS], row[some], axis=0,
                            out=err[:, c:c + _BLOCK_ELEMENTS], mode="clip")
                x -= fake_quantize(x, scheme)
                np.square(x, out=x)
            cand_err[some] = np.mean(err, axis=1)
        # Lowest error per row; the stable sort keeps the earliest step on a tie.
        pick = np.lexsort((cand_err, row))[np.searchsorted(row, np.arange(len(rows)))]
        scales, errs = cand[pick], cand_err[pick]
        scales[zero], errs[zero] = 1.0, 0.0
        found.append((scales, errs))
    return found, bool(zero.any())


def _search(
    t: np.ndarray, ntypes: Sequence[NumericType], axis: int | None
) -> tuple[list[tuple[QuantScheme, float]], bool]:
    """The scale search of ``t`` for every type of ``ntypes`` at once: each
    type's scheme and overall MSE, and the all-zero-slice flag.  Values
    near 1e153 or more overflow the scores and MSEs to inf or NaN, which
    the search takes without a warning."""
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        raise QuantizationError("cannot search scales on an empty tensor")
    axis = check_axis(axis, t.ndim)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN score keeps every step
        if axis is None:
            found, degenerate = _best_scales(t.reshape(1, -1), ntypes)
            return ([(QuantScheme(nt, s), float(e[0])) for nt, (s, e) in zip(ntypes, found)],
                    degenerate)
        found, degenerate = _best_scales(np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1),
                                         ntypes)
        schemes = [QuantScheme(nt, s, axis=axis) for nt, (s, _) in zip(ntypes, found)]
        return [(sc, mse(fake_quantize(t, sc), t)) for sc in schemes], degenerate


def argmin_mse_scale(
    t: np.ndarray,
    ntype: NumericType,
    axis: int | None = None,
) -> tuple[QuantScheme, float, bool]:
    """Per-slice MSE-minimizing scale search.

    The slices along ``axis`` (or the whole tensor, for ``axis=None``) are
    the rows of one sweep.  Returns the scheme, the overall quantization
    MSE, and a flag set when any slice was all-zero (its scale falls back
    to 1.0).
    """
    [(scheme, err)], degenerate = _search(t, [ntype], axis)
    return scheme, err, degenerate


def select_type(
    t: np.ndarray,
    candidates: Sequence[NumericType],
    axis: int | None = None,
) -> SelectionResult:
    """Pick the candidate type with the lowest quantization MSE.

    Unsigned candidates are dropped when the tensor has negative entries.
    Ties break toward the earlier candidate in the list.
    """
    t = np.asarray(t, dtype=np.float64)
    has_neg = t.size > 0 and float(t.min()) < 0
    effective = [c for c in candidates if c.signed or not has_neg]
    if not effective:
        raise QuantizationError("no usable candidate types (negatives with all-unsigned list)")
    found, degenerate = _search(t, effective, axis)
    best = None
    per_mse: dict[str, float] = {}
    for cand, (scheme, err) in zip(effective, found):
        per_mse[cand.name] = err
        if best is None or err < best.mse_value:
            best = SelectionResult(cand, scheme, err, per_mse, degenerate)
    return best


def make_candidates(
    kinds: Sequence[str] = DEFAULT_CANDIDATES,
    width: int = 4,
    signed: bool = True,
) -> list[NumericType]:
    return [NumericType(k, width, signed) for k in kinds]


# ---------------------------------------------------------------------------
# Mixed precision
# ---------------------------------------------------------------------------

@dataclass
class LayerTensors:
    """Calibration inputs for one GEMM layer."""

    layer_id: str
    weight: np.ndarray
    activation: np.ndarray
    weight_axis: int | None = 0  # per-channel weights by default


@dataclass
class LayerPlan:
    """A layer's 4-bit selections, and its int8 (weight, activation) pair
    once the layer is promoted; the width and the selections in force
    follow from whether that pair is set."""

    layer_id: str
    weight_4bit: SelectionResult
    activation_4bit: SelectionResult
    normalized_mse: float  # at 4 bits, used for promotion ordering
    int8: tuple[SelectionResult, SelectionResult] | None = None

    @property
    def width(self) -> int:
        return 4 if self.int8 is None else 8

    @property
    def weight(self) -> SelectionResult:
        return self.weight_4bit if self.int8 is None else self.int8[0]

    @property
    def activation(self) -> SelectionResult:
        return self.activation_4bit if self.int8 is None else self.int8[1]

    def to_json(self) -> dict:
        doc = {
            "layerId": self.layer_id,
            "width": self.width,
            "weightType": self.weight.to_json(),
            "activationType": self.activation.to_json(),
            "normalizedMse": self.normalized_mse,
        }
        if self.int8 is not None:
            doc["fourBitCandidates"] = {
                "weight": self.weight_4bit.per_candidate_mse,
                "activation": self.activation_4bit.per_candidate_mse,
            }
        return doc


@dataclass
class PrecisionPlan:
    layers: list[LayerPlan]
    aggregate_mse: float
    promotion_order: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "layers": [l.to_json() for l in self.layers],
            "aggregateMse": self.aggregate_mse,
            "promotionOrder": self.promotion_order,
        }


def _normalized_mse(t: np.ndarray, err: float) -> float:
    with np.errstate(over="ignore"):  # values near 1e154 or more: the power is inf, as err is
        power = float(np.mean(np.asarray(t, dtype=np.float64) ** 2))
    return err / power if power > 0 else 0.0


def _sum_in_order(terms: Sequence[float]) -> float:
    """Plain left-to-right float sum; the built-in ``sum`` compensates its
    rounding since Python 3.12, which would move the plan's aggregate bits."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _select_layer(
    layer: LayerTensors, candidates: Sequence[NumericType]
) -> tuple[SelectionResult, SelectionResult, float]:
    for role, t in (("weight", layer.weight), ("activation", layer.activation)):
        if np.size(t) == 0:
            raise QuantizationError(f"layer {layer.layer_id}: the {role} tensor holds no values")
    act_candidates = list(candidates)
    if float(np.min(layer.activation)) >= 0:
        # Post-ReLU style tensors get the unsigned variants.
        act_candidates = [NumericType(c.kind, c.width, signed=False) for c in candidates]
    w_sel = select_type(layer.weight, candidates, layer.weight_axis)
    a_sel = select_type(layer.activation, act_candidates)
    nmse = _normalized_mse(layer.weight, w_sel.mse_value) + _normalized_mse(
        layer.activation, a_sel.mse_value
    )
    return w_sel, a_sel, nmse


def plan_mixed_precision(
    layers: Sequence[LayerTensors],
    candidates: Sequence[NumericType] | None = None,
    threshold: float = np.inf,
    max_promotions: int | None = None,
) -> PrecisionPlan:
    """Layer-wise 4/8-bit assignment by greedy promotion.

    Every layer starts at 4-bit with its selected types.  While the
    aggregate normalized MSE exceeds ``threshold``, the
    not-yet-promoted layer with the greatest 4-bit normalized MSE moves to
    8-bit int.  ``max_promotions`` caps the loop (budget mode); with every
    layer at 8 bits the loop always terminates.
    """
    candidates = list(candidates) if candidates is not None else make_candidates()
    plans = [LayerPlan(l.layer_id, *_select_layer(l, candidates)) for l in layers]
    # Each layer's share of the aggregate: its 4-bit one, its 8-bit one once promoted.
    terms = [p.normalized_mse for p in plans]
    promoted: list[str] = []

    limit = len(layers) if max_promotions is None else min(max_promotions, len(layers))
    while _sum_in_order(terms) > threshold and len(promoted) < limit:
        worst = max((i for i, p in enumerate(plans) if p.int8 is None),
                    key=lambda i: plans[i].normalized_mse)
        w, a, terms[worst] = _select_layer(layers[worst], [INT8])
        plans[worst] = replace(plans[worst], int8=(w, a))
        promoted.append(plans[worst].layer_id)
    return PrecisionPlan(plans, _sum_in_order(terms), promoted)
