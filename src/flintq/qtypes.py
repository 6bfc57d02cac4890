"""Uniform quantize/dequantize for the four primitive low-bit types.

All four types (int / pot / flint / float) share one interface: a
``NumericType`` describes the format, a ``QuantScheme`` adds the scale
factors (per-tensor or per-channel), and ``quantize``/``dequantize`` map
between real tensors and code tensors.  Codes are stored one per element
in uint8 arrays.

Every kind has one rounding rule: ``u = v / scale`` takes its nearest grid
value, ties away from zero.  The cached threshold table is the midpoints of
neighbouring grid values.  ``quantize`` finds each element's cell by one
lookup for every kind: the shifted float64 bits of ``|u|`` index a cached
table of cells.  It writes the lowest code of the cell's value, so every
input in the zero cell gets code 0.
``fake_quantize`` reads the values straight from the grid.

Code layouts (every kind is written once, as the (base, exponent) table of
``NumericType.decoded()``; each code's value is
base * 2**(exponent - exponent_offset), the offset 0 for all but float):
* int    -- two's complement in the low ``width`` bits.
* pot    -- code 0 is zero, code k >= 1 is 2**(k-1); signed uses a sign
            bit in the MSB over a (width-1)-bit magnitude code.
* flint  -- sign bit (if signed) over a first-one magnitude code: with its
            high bit set, 2 * the zeros before the next one is the exponent.
* float  -- sign bit (if signed) over an exponent code and an M-bit
            mantissa; exponent code 0 denotes subnormals (no implicit
            leading one), bias -1.
A sign bit over a zero magnitude decodes to base 0, so no table holds -0.0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

KINDS = ("int", "pot", "flint", "float")


class QuantizationError(ValueError):
    pass


@dataclass(frozen=True)
class DecodedPair:
    """Integer-path decode result: value = base * 2**exponent.  The fields
    are ints, or int64 arrays holding one pair per code or MAC lane."""

    base: int | np.ndarray
    exponent: int | np.ndarray

    @property
    def value(self) -> int:
        return self.base << self.exponent


@dataclass(frozen=True)
class NumericType:
    kind: str
    width: int
    signed: bool = True
    float_split: tuple[int, int] | None = None  # (exponent bits, mantissa bits)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise QuantizationError(f"unknown kind {self.kind!r}")
        if not 3 <= self.width <= 8:
            raise QuantizationError(f"width must be in [3, 8], got {self.width}")
        if self.kind == "float":
            split = self.float_split or default_float_split(self.width, self.signed)
            e, m = split
            if e < 0 or m < 0:
                raise QuantizationError(f"float split {split} has a negative field width")
            if e + m + (1 if self.signed else 0) != self.width:
                raise QuantizationError(f"float split {split} does not fill width {self.width}")
            object.__setattr__(self, "float_split", (e, m))
        elif self.float_split is not None:
            raise QuantizationError(f"{self.kind} takes no float split, got {self.float_split}")

    @property
    def name(self) -> str:
        base = f"{'' if self.signed else 'u'}{self.kind}{self.width}"
        if self.kind == "float":
            e, m = self.float_split
            return f"{base}e{e}m{m}"
        return base

    def grid(self) -> np.ndarray:
        """All representable values at unit scale, strictly increasing (read-only)."""
        return _grid(self)

    def code_values(self) -> np.ndarray:
        """Decoded value of every code word, indexed by code (length 2**width, read-only)."""
        return _code_values(self)

    def decoded(self) -> DecodedPair:
        """The integer-path (base, exponent) pair of every code word, indexed
        by code: read-only int64 arrays, ``base * 2**(exponent -
        exponent_offset)`` the code's value."""
        return _decoded(self)

    @property
    def exponent_offset(self) -> int:
        """float's mantissa width M, so that every ``decoded()`` base is an
        integer; 0 for the other kinds."""
        return self.float_split[1] if self.kind == "float" else 0

    def thresholds(self) -> np.ndarray:
        """Unit-scale decision thresholds of the quantizer (read-only).

        ``thresholds()[k]`` is the least float64 ``u`` that quantizes above
        ``grid()[k]``: the midpoint of ``grid()[k]`` and ``grid()[k + 1]``,
        one ulp higher below zero.  So
        ``grid()[searchsorted(thresholds(), u, "right")]`` is the quantized
        value of ``u = v / scale``.
        """
        return _thresholds(self)

    def max_value(self) -> float:
        return float(_grid(self)[-1])


def default_float_split(width: int, signed: bool) -> tuple[int, int]:
    """Default exponent/mantissa split; 4-bit signed is (2, 1)."""
    e = (width + 1) // 2 if not signed else width // 2
    m = width - e - (1 if signed else 0)
    return (e, m)


@dataclass(frozen=True)
class QuantScheme:
    ntype: NumericType
    scales: np.ndarray  # shape (1,) for per-tensor, (channels,) for per-channel
    axis: int | None = None

    def __post_init__(self):
        scales = np.atleast_1d(np.asarray(self.scales, dtype=np.float64))
        if not np.all(np.isfinite(scales)) or np.any(scales <= 0):
            raise QuantizationError("scales must be positive and finite")
        if self.axis is None and scales.size != 1:
            raise QuantizationError("per-tensor scheme takes exactly one scale")
        object.__setattr__(self, "scales", scales)


@dataclass
class QTensor:
    codes: np.ndarray  # flat uint8
    shape: tuple[int, ...]
    scheme: QuantScheme

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8).ravel()
        self.shape = tuple(self.shape)
        if self.codes.size != int(np.prod(self.shape, dtype=np.int64)):
            raise QuantizationError("code count does not match shape")
        if self.codes.size and int(self.codes.max()) >= (1 << self.scheme.ntype.width):
            raise QuantizationError("code exceeds type width")


# ---------------------------------------------------------------------------
# Cached per-type tables (NumericType is frozen, so it keys the caches)
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _decoded(t: NumericType) -> DecodedPair:
    codes = np.arange(1 << t.width, dtype=np.int64)
    if t.kind == "int":  # two's complement
        base = np.where(codes >> (t.width - 1), codes - (1 << t.width), codes) if t.signed else codes
        exponent = np.zeros_like(codes)
    elif t.kind == "pot":  # sign bit (if signed) over the magnitude code k: 2**(k-1)
        mag_width = t.width - t.signed
        k = codes & ((1 << mag_width) - 1)
        base = np.where(k == 0, 0, np.where(codes >> mag_width, -1, 1))
        exponent = np.maximum(k - 1, 0)
    elif t.kind == "flint":  # sign bit (if signed) over a high bit and low bits
        mag_width = t.width - t.signed
        high, low = (codes >> (mag_width - 1)) & 1, codes & ((1 << (mag_width - 1)) - 1)
        zeros = mag_width - 1 - np.frexp(low)[1].astype(np.int64)  # before low's first one
        # High bit clear: the low bits.  Set: the low bits shifted left one, 1 if all zero.
        base = np.where(high, np.maximum(low << 1, 1), low)
        base = np.where(codes >> mag_width, -base, base)
        exponent = high * 2 * zeros
    else:  # float: sign bit (if signed) over the magnitude code ec * 2**M + m
        mag_width, m_bits = t.width - t.signed, t.float_split[1]
        mag = codes & ((1 << mag_width) - 1)
        ec, m = mag >> m_bits, mag & ((1 << m_bits) - 1)
        # Exponent code 0 is subnormal: no leading one, the exponent of code 1.
        base = np.where(ec == 0, m, m + (1 << m_bits))
        base = np.where(codes >> mag_width, -base, base)
        exponent = np.maximum(ec - 1, 0)
    return DecodedPair(_read_only(base), _read_only(exponent))


@functools.cache
def _code_values(t: NumericType) -> np.ndarray:
    pair = _decoded(t)
    return _read_only(np.ldexp(pair.base, pair.exponent - t.exponent_offset))


@functools.cache
def _cell_codes(t: NumericType) -> np.ndarray:
    """The code ``quantize`` writes for each grid cell: the lowest code of the
    cell's value.  The stable sort makes the zero cell's code 0, never the
    code of a sign bit over a zero magnitude."""
    _, first = np.unique(_code_values(t), return_index=True)
    return _read_only(first.astype(np.uint8))


@functools.cache
def _grid(t: NumericType) -> np.ndarray:
    return _read_only(_code_values(t)[_cell_codes(t)])


@functools.cache
def _thresholds(t: NumericType) -> np.ndarray:
    """The midpoints of neighbouring grid values, exact in float64 for every
    grid here.  Below zero each is moved up one ulp, so that a tie, which
    ``searchsorted(..., side="right")`` would send up, goes away from zero."""
    grid = _grid(t)
    mid = (grid[:-1] + grid[1:]) / 2
    return _read_only(np.where(mid < 0, np.nextafter(mid, np.inf), mid))


@functools.cache
def _bucket_cells(t: NumericType) -> tuple[np.ndarray, int, int, int]:
    """``(cells, shift, lo, hi)`` of the lookup in ``_cells``.  A magnitude's
    bucket is its float64 bits shifted right by ``shift``, the largest shift
    that puts every cell edge (a threshold's magnitude, one ulp further out
    below zero) on a bucket edge.  Buckets clip to ``[lo, hi]``, one below
    the lowest edge's to the highest edge's; ``cells`` holds the cell of
    every positive bucket, then of every negative one."""
    thr = _thresholds(t)
    mag = np.abs(thr).view(np.int64)
    edges = np.where(thr < 0, mag + 1, mag)
    bits = int(np.bitwise_or.reduce(edges))
    shift = (bits & -bits).bit_length() - 1
    lo, hi = int(edges.min() >> shift) - 1, int(edges.max() >> shift)
    low_ends = (np.arange(lo, hi + 1, dtype=np.int64) << shift).view(np.float64)
    cells = np.searchsorted(thr, np.concatenate([low_ends, -low_ends]), side="right")
    return _read_only(cells), shift, lo, hi


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

def check_axis(axis: int | None, ndim: int) -> int | None:
    """``axis`` as a non-negative axis of an ``ndim``-D tensor (None stays
    None); QuantizationError if it is out of range."""
    if axis is None:
        return None
    if not -ndim <= axis < ndim:
        raise QuantizationError(f"axis {axis} is out of range for a {ndim}-D tensor")
    return axis % ndim


def _broadcast_scales(scheme: QuantScheme, ndim: int) -> np.ndarray:
    """The scales shaped to broadcast along the scheme's axis of an ``ndim``-D
    tensor, so each element meets its own channel's scale in one array
    operation; a per-tensor scheme's one scale as a scalar."""
    if scheme.axis is None:
        return scheme.scales[0]
    shape = [1] * ndim
    shape[scheme.axis] = scheme.scales.size
    return scheme.scales.reshape(shape)


def _cells(t: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """The grid cell of every element of ``t``, flat in C order:
    ``grid()[cells]`` is its quantized value at unit scale."""
    if not np.all(np.isfinite(t)):
        raise QuantizationError("input tensor contains non-finite values")
    axis = check_axis(scheme.axis, t.ndim)
    if axis is not None and scheme.scales.size != t.shape[axis]:
        raise QuantizationError(
            f"got {scheme.scales.size} scales for axis of length {t.shape[axis]}"
        )
    ntype = scheme.ntype
    if not ntype.signed and t.size and float(t.min()) < 0:
        raise QuantizationError("unsigned type cannot quantize negative values")
    cells, shift, lo, hi = _bucket_cells(ntype)
    with np.errstate(over="ignore"):  # an infinite quotient lands on an end cell
        u = np.ravel(t / _broadcast_scales(scheme, t.ndim))
    negative = u < 0
    # The buckets overwrite u in place and the sign offset is uint16 (no
    # table nears 2**16 cells), so few fresh pages are touched.
    b = np.abs(u, out=u).view(np.int64)
    b >>= shift
    np.clip(b, lo, hi, out=b)
    b -= lo
    b += np.multiply(negative, hi - lo + 1, dtype=np.uint16)
    return np.take(cells, b, out=b, mode="clip")


def quantize(t: np.ndarray, scheme: QuantScheme) -> QTensor:
    t = np.asarray(t, dtype=np.float64)
    axis = check_axis(scheme.axis, t.ndim)
    if axis != scheme.axis:  # a QTensor holds its axis non-negative
        scheme = replace(scheme, axis=axis)
    return QTensor(_cell_codes(scheme.ntype)[_cells(t, scheme)], t.shape, scheme)


def dequantize(q: QTensor) -> np.ndarray:
    out = _code_values(q.scheme.ntype)[q.codes].reshape(q.shape)
    out *= _broadcast_scales(q.scheme, out.ndim)
    return out


def fake_quantize(t: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """quantize followed by dequantize, bit for bit, read straight from the
    grid without a round trip through the codes."""
    t = np.asarray(t, dtype=np.float64)
    out = _grid(scheme.ntype)[_cells(t, scheme)].reshape(t.shape)
    out *= _broadcast_scales(scheme, out.ndim)
    return out


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise QuantizationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.mean((a - b) ** 2))


INT8 = NumericType("int", 8, signed=True)
