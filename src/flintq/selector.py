"""MSE-driven scale search, per-tensor type selection, and the layer-wise
mixed-precision promotion loop.

Scale search sweeps linear clipping ratios of the max-abs value and keeps
the scale with the lowest quantization MSE.  A slice with fewer than
``_DIRECT_VALUES_PER_CELL`` values per grid cell of a type is scored by
quantizing it at every step, which is cheaper below the crossover measured
there; longer slices are sorted once for all such types, cut by one
``searchsorted`` of the thresholds times each scale, and scored from
prefix sums, with the steps within a rounding bound of the best re-scored
exactly.  Type selection runs one scale search for all candidate types
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

# The integer-path datapath covers int, pot, and flint; float has no
# (base, exponent) decode, so only library callers may pass it as a
# candidate (``select --candidates`` rejects it).
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

    With each row sorted and prefix sums P1, P2 of v and v**2, the grid cell
    that dequantizes to ``d`` and holds ``m`` values adds
    ``P2 - 2 d P1 + m d**2`` to the squared error.  Each row is cut at
    ``threshold * scale``, where ``quantize`` compares ``v / scale`` with
    the threshold; both round once, so a value may land in the cell next to
    its own only when its quotient q lies within u|t| of threshold t (u the
    unit roundoff), and t lies within one ulp of the midpoint of its two
    grid values.  Such a value's squared error then moves by at most
    ``3 u D**2``, D the largest |d|.  The bound covers this and the rounding
    of both figures: with n the row length and G grid cells, they differ by
    at most ``(6n + G + 15) u M / n`` with M = sum v**2 + 2 D sum|v| +
    n D**2 (sequential-summation error bounds, no underflow); the bound
    returned is over twice that.
    """
    xs = np.sort(v, axis=1)
    rows, n = xs.shape
    p1, p2 = np.zeros((rows, n + 1)), np.zeros((rows, n + 1))
    np.cumsum(xs, axis=1, out=p1[:, 1:])
    np.cumsum(np.square(xs), axis=1, out=p2[:, 1:])
    abs_sum = np.abs(xs).sum(axis=1, keepdims=True)
    row_start = np.arange(0, rows * (n + 1), n + 1)[:, None, None]
    scored = []
    for ntype, sc in zip(ntypes, scales):
        grid = ntype.grid()
        edges = np.empty(sc.shape + (grid.size + 1,), dtype=np.int64)
        edges[..., 0], edges[..., -1] = 0, n
        thresholds = ntype.thresholds()
        for r in range(rows):  # searchsorted takes one sorted array at a time
            edges[r, :, 1:-1] = np.searchsorted(xs[r], thresholds * sc[r][:, None])
        flat = edges + row_start
        d = grid * sc[..., None]  # as dequantize computes it
        s1 = np.diff(p1.ravel()[flat], axis=-1)
        s2 = np.diff(p2.ravel()[flat], axis=-1)
        del flat
        # s2 - 2 d s1 + m d d, evaluated in that order, in place.
        s1 *= 2.0 * d
        s2 -= s1
        del s1
        m = np.diff(edges, axis=-1) * d
        m *= d
        s2 += m
        del m, d
        est = s2.sum(axis=-1)
        est /= n
        d_max = float(np.max(np.abs(grid))) * sc
        m_total = p2[:, -1:] + 2.0 * d_max * abs_sum + n * d_max * d_max
        scored.append((est, np.finfo(np.float64).eps * (8 * n + 2 * grid.size + 32) * m_total / n))
    return scored


# Rows are swept in blocks whose largest temporary holds at most this many
# elements, so memory stays bounded whatever the channel count or width.
_BLOCK_ELEMENTS = 1 << 15

# A type whose rows hold fewer than this many values per grid cell is scored
# directly: quantizing a short row at all 81 steps costs less than cutting
# it 81 times at every grid threshold.  Measured on 16 and 64 Laplace rows
# (2-CPU Xeon): int8 (257 cells) took 0.2-0.3x the prefix-sum time at 256
# values per row, 0.55-0.8x at 1024 and 0.8-1.2x at 1536, but 1.4-1.7x at
# 2048; int4, pot4 and flint4 break even near 80 values.
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
    block of rows is sorted once; every step is scored from prefix sums,
    and only the steps that may hold a row's minimum within the rounding
    bound are re-scored exactly.  Either way each row's result is that of
    a plain quantize/dequantize/mse sweep, ties keeping the earlier
    (smaller) scale.
    """
    max_abs = np.abs(rows).max(axis=1)
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
        cells = max(ntypes[i].grid().size for i in swept) + 1
        block = max(1, _BLOCK_ELEMENTS // max(n, ratios.size * cells))
        for b in range(0, len(rows), block):
            scored = _sweep_scores(rows[b:b + block], [ntypes[i] for i in swept],
                                   [sweeps[i][b:b + block] for i in swept])
            for i, (est, bound) in zip(swept, scored):
                # A NaN score (overflow) compares False, so its step is re-scored too.
                maybe_best[i][b:b + block] = ~(est - bound
                                               > np.min(est + bound, axis=1, keepdims=True))
    block = max(1, _BLOCK_ELEMENTS // n)
    found = []
    for ntype, sweep, mb in zip(ntypes, sweeps, maybe_best):
        row, step = np.nonzero(mb)  # row-major: each row's steps in sweep order
        cand = sweep[row, step]
        cand_err = np.empty(cand.size)
        for b in range(0, cand.size, block):
            # One candidate per row (the usual case): the rows themselves, not a copy.
            x = rows[b:b + block] if cand.size == len(rows) else rows[row[b:b + block]]
            fq = fake_quantize(x, QuantScheme(ntype, cand[b:b + block], axis=0))
            fq -= x
            cand_err[b:b + block] = np.mean(np.square(fq, out=fq), axis=1)
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
