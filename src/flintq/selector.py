"""MSE-driven scale search, per-tensor type selection, and the layer-wise
mixed-precision promotion loop.

Scale search sweeps linear clipping ratios of the max-abs value and keeps
the scale with the lowest quantization MSE.  A slice with fewer than
``_DIRECT_VALUES_PER_CELL`` values per grid cell of a type is scored by
quantizing it at every step, which is cheaper below the crossover measured
there; longer slices are sorted once for all such types, cut by one
``searchsorted`` of the thresholds times each scale, and scored from
each row's one prefix sum, with the steps within a rounding bound of the
best re-scored exactly.  Type selection runs one scale search for all candidate types
and keeps the winner.  The promotion loop selects every layer's 4-bit
types on one thread, in model order, and promotes the worst layer (by
normalized MSE) to 8-bit int until the aggregate normalized MSE meets a
threshold.
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


# Rows are swept in blocks, and re-scored in blocks and column chunks, whose
# temporaries hold at most this many elements, so memory stays bounded
# whatever the channel count or width: a block of sorted rows, or the cuts
# of every prefix-scored type at all 81 steps of its rows.  A longer row is
# held whole in one array at a time: sorted (then its own prefix sum), and
# then as one row of squared errors in the exact re-score.
_BLOCK_ELEMENTS = 1 << 15

# A type whose rows hold fewer than this many values per grid cell is scored
# directly: quantizing a short row at all 81 steps costs less than cutting
# it 81 times at every grid threshold.  Measured on 16 and 64 Laplace rows
# (2-CPU Xeon, best of 15 alternating calls, 3 fresh interpreters), direct
# int8 scoring (257 cells) took 0.70-0.82x the prefix-sum time at 512 values
# per row, 0.88-1.29x at 768, 1.10-1.47x at 1024 and 1.17-1.34x at 1536;
# int4, pot4 and flint4 together (17 cells) took 0.81-0.94x at 32 values,
# 0.98-1.18x at 48 and 1.21-1.40x at 64.  Both widths break even near 3
# values per cell.  The switch stays at 6: at 3 the benchmark's warm-up, a
# 64-value selection, would take the prefix path and move the peak RSS of
# sim-datapath, a workload that selects nothing.
_DIRECT_VALUES_PER_CELL = 6


def _best_scales(
    rows: np.ndarray, ntypes: Sequence[NumericType]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], bool]:
    """Sweep clip ratios on every row of ``rows`` for every type of
    ``ntypes``; returns each type's (scale, MSE) per row, and whether any
    row was all-zero (its scale falls back to 1.0).

    A type whose rows hold fewer than ``_DIRECT_VALUES_PER_CELL`` values
    per grid cell (``grid().size + 1`` cells) is scored directly: every
    step of every row is re-scored exactly.  For the other types, each
    block of rows is sorted once; every step is scored from the rows'
    prefix sums, and only the steps that may hold a row's minimum within
    the rounding bound are re-scored exactly.  Either way each row's result is that of
    a plain quantize/dequantize/mse sweep, ties keeping the earlier
    (smaller) scale.

    The re-score copies each block of candidate rows into one buffer,
    reused by every type, and turns it into squared errors in place.  Each
    ``fake_quantize`` takes at most ``_BLOCK_ELEMENTS`` values: a block of
    short rows, or a column chunk of a longer row.  The mean of each buffer
    row is then the same reduction over the same values as ``mse`` of the
    whole row.
    """
    max_abs = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    if not np.all(np.isfinite(max_abs)):
        raise QuantizationError("input tensor contains non-finite values")
    zero = max_abs == 0.0  # swept at max_abs 1.0, then given scale 1.0 and MSE 0
    steps = DEFAULT_SWEEP_STEPS
    ratios = np.arange(int(round(steps * DEFAULT_MIN_CLIP_RATIO)), steps + 1)
    top = np.where(zero, 1.0, max_abs)[:, None]
    sweeps = [top * ratios / steps / t.max_value() for t in ntypes]
    n = rows.shape[1]
    # The types scored from prefix sums; every step of the others is re-scored.
    swept = [i for i, t in enumerate(ntypes) if n >= _DIRECT_VALUES_PER_CELL * (t.grid().size + 1)]
    maybe_best = [np.full(s.shape, i not in swept) for i, s in enumerate(sweeps)]
    if swept:
        cuts = sum(ntypes[i].thresholds().size for i in swept)  # per row and step
        block = max(1, _BLOCK_ELEMENTS // max(n, ratios.size * cuts))
        for b in range(0, len(rows), block):
            scored = _sweep_scores(rows[b:b + block], [ntypes[i] for i in swept],
                                   [sweeps[i][b:b + block] for i in swept])
            for i, (est, bound) in zip(swept, scored):
                # A NaN score (overflow) compares False, so its step is re-scored too.
                maybe_best[i][b:b + block] = ~(est - bound
                                               > np.min(est + bound, axis=1, keepdims=True))
    block = min(max(1, _BLOCK_ELEMENTS // n), max(np.count_nonzero(mb) for mb in maybe_best))
    sq_err = np.empty((block, n))  # one block of candidates' squared errors, for every type
    found = []
    for ntype, sweep, mb in zip(ntypes, sweeps, maybe_best):
        row, step = np.nonzero(mb)  # row-major: each row's steps in sweep order
        cand = sweep[row, step]
        cand_err = np.empty(cand.size)
        for b in range(0, cand.size, block):
            scheme = QuantScheme(ntype, cand[b:b + block], axis=0)
            err = sq_err[:scheme.scales.size]
            # A row longer than _BLOCK_ELEMENTS (alone in its block) goes in
            # column chunks.  Each chunk of err is contiguous, and mode="clip"
            # (every index is in range) lets take write into it unbuffered.
            for c in range(0, n, _BLOCK_ELEMENTS):
                x = np.take(rows[:, c:c + _BLOCK_ELEMENTS], row[b:b + block], axis=0,
                            out=err[:, c:c + _BLOCK_ELEMENTS], mode="clip")
                x -= fake_quantize(x, scheme)
                np.square(x, out=x)
            cand_err[b:b + block] = np.mean(err, axis=1)
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
    type's scheme and overall MSE, and the all-zero-slice flag."""
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        raise QuantizationError("cannot search scales on an empty tensor")
    axis = check_axis(axis, t.ndim)
    if axis is None:
        found, degenerate = _best_scales(t.reshape(1, -1), ntypes)
        return [(QuantScheme(nt, s), float(e[0])) for nt, (s, e) in zip(ntypes, found)], degenerate
    found, degenerate = _best_scales(np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1), ntypes)
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
