"""File formats: raw tensors, quantized tensors, model graphs, plans, array
configs.

On-disk layout for tensor files is one UTF-8 JSON header line terminated
by ``\\n``, followed by the raw payload:

* tensor file   -- header {"name", "shape", "dtype": "f32", "byteOrder":
  "little"}; payload is row-major little-endian float32.
* qtensor file  -- header {"shape", "ntype", "scales", "axis"}; payload
  is one code per byte (no bit packing).

Model graphs, precision plans and array configs are plain JSON documents.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import sim
from .qtypes import NumericType, QTensor, QuantizationError, QuantScheme
from .selector import ntype_from_json, ntype_to_json


class TensorIOError(ValueError):
    pass


NTYPE_KEYS = ("kind", "width", "signed")

# JSON decodes to these types only; int never admits true or false here.
_JSON_NAMES = {dict: "a JSON object", list: "a JSON list", str: "a string", int: "an integer",
               float: "a number", bool: "true or false", type(None): "null"}


# Every JSON integer an input holds must lie in [-2**63, 2**63), so that
# no arithmetic on it overflows a float.
INT_BOUND = 1 << 63


def _value(value, where: str, *types: type):
    """Return ``value`` if its exact type is one of ``types``, an integer
    lies within [-2**63, 2**63) and a number with a fraction or an exponent
    is finite."""
    if type(value) not in types:
        want = " or ".join(_JSON_NAMES[t] for t in types)
        got = json.dumps(value, default=float)  # number text read as bytes prints as its number
        if len(got) > 40:
            got = got[:37] + "..."
        raise TensorIOError(f"{where}: expected {want}, got {got}")
    if type(value) is int and not -INT_BOUND <= value < INT_BOUND:
        raise TensorIOError(f"{where}: integer out of range [-2**63, 2**63)")
    if type(value) is float and not math.isfinite(value):
        raise TensorIOError(f"{where}: expected a finite number, got {value}")
    return value


def _require(doc, keys: tuple[str, ...], where: str) -> dict:
    """Return ``doc`` if it is a JSON object holding every key in ``keys``."""
    missing = [k for k in keys if k not in _value(doc, where, dict)]
    if missing:
        raise TensorIOError(f"{where}: missing required key(s) {', '.join(missing)}")
    return doc


def _require_shape(header: dict, path: str) -> tuple[int, ...]:
    where = f"{path}: header shape"
    shape = tuple(_value(header["shape"], where, list))
    for dim in shape:
        if _value(dim, where, int) < 0:
            raise TensorIOError(f"{where}: negative dimension {dim}")
    return shape


def _load_ntype(doc, where: str) -> NumericType:
    """The numeric type an ``ntype`` object names; its kind must be a string,
    its width an integer, ``signed`` true or false and ``floatSplit`` null or
    two integers.  A type those do not make is a QuantizationError prefixed
    with ``where``."""
    _require(doc, NTYPE_KEYS, where)
    _value(doc["kind"], f"{where} kind", str)
    _value(doc["width"], f"{where} width", int)
    _value(doc["signed"], f"{where} signed", bool)
    split = _value(doc.get("floatSplit"), f"{where} floatSplit", list, type(None))
    if split is not None and (len(split) != 2 or any(type(v) is not int for v in split)):
        raise TensorIOError(f"{where} floatSplit: expected two integers, "
                            f"got {json.dumps(split, default=float)}")
    for v in split or ():
        _value(v, f"{where} floatSplit", int)
    try:
        return ntype_from_json(doc)
    except QuantizationError as exc:
        raise QuantizationError(f"{where}: {exc}") from None


def _read_header(f, path: str, keys: tuple[str, ...]) -> dict:
    line = f.readline()
    if not line.endswith(b"\n"):
        raise TensorIOError(f"{path}: missing or unterminated header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TensorIOError(f"{path}: malformed JSON header: {exc}") from exc
    return _require(header, keys, f"{path}: header")


def _load_json(path: str, parse_float=float):
    """A JSON document file; bytes that are not UTF-8 or not JSON are a
    malformed input file.  ``parse_float`` is ``json.loads``'s: it maps the
    text of each number with a fraction or an exponent to its value."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return json.loads(data.decode("utf-8"), parse_float=parse_float)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TensorIOError(f"{path}: malformed JSON: {exc}") from exc


def save_tensor(path: str, t: np.ndarray, name: str = "") -> None:
    t = np.ascontiguousarray(t, dtype="<f4")
    header = {"name": name, "shape": list(t.shape), "dtype": "f32", "byteOrder": "little"}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(t.tobytes())


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        header = _read_header(f, path, ("shape",))
        payload = f.read()
    if header.get("dtype") != "f32":
        raise TensorIOError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    if header.get("byteOrder") != "little":
        raise TensorIOError(f"{path}: unsupported byte order {header.get('byteOrder')!r}")
    shape = _require_shape(header, path)
    expected = 4 * math.prod(shape)
    if len(payload) != expected:
        raise TensorIOError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    t = np.frombuffer(payload, dtype="<f4").reshape(shape)
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise TensorIOError(f"{path}: non-finite value at flat index {int(bad[0])}")
    return t.astype(np.float64)


def save_qtensor(path: str, q: QTensor) -> None:
    header = {
        "shape": list(q.shape),
        "ntype": ntype_to_json(q.scheme.ntype),
        "scales": q.scheme.scales.tolist(),
        "axis": q.scheme.axis,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(q.codes.astype(np.uint8).tobytes())


def load_qtensor(path: str) -> QTensor:
    with open(path, "rb") as f:
        header = _read_header(f, path, ("shape", "ntype", "scales"))
        payload = f.read()
    ntype = _load_ntype(header["ntype"], f"{path}: ntype")
    shape = _require_shape(header, path)
    expected = math.prod(shape)
    if len(payload) != expected:
        raise TensorIOError(f"{path}: payload is {len(payload)} codes, expected {expected}")
    codes = np.frombuffer(payload, dtype=np.uint8)
    if codes.size and int(codes.max()) >= (1 << ntype.width):
        raise TensorIOError(f"{path}: code exceeds {ntype.width}-bit width")
    scales = [_value(v, f"{path}: header scales", int, float)
              for v in _value(header["scales"], f"{path}: header scales", list)]
    axis = _value(header.get("axis"), f"{path}: header axis", int, type(None))
    if axis is not None and not (0 <= axis < len(shape) and len(scales) == shape[axis]):
        raise TensorIOError(f"{path}: {len(scales)} scales along axis {axis} of shape {list(shape)}")
    try:
        scheme = QuantScheme(ntype, np.asarray(scales, dtype=np.float64), axis=axis)
    except QuantizationError as exc:
        raise QuantizationError(f"{path}: header scales: {exc}") from None
    return QTensor(codes.copy(), shape, scheme)


# ---------------------------------------------------------------------------
# Model graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvDims:
    batch: int
    in_channels: int
    height: int
    width: int
    out_channels: int
    kh: int
    kw: int
    stride: int = 1
    pad: int = 0


@dataclass
class GraphLayer:
    layer_id: str
    m: int
    n: int
    k: int
    weight_path: str | None = None
    calibration_paths: list[str] | None = None


# The required keys of a conv layer, in ConvDims field order.
CONV_KEYS = ("N_batch", "C", "H", "W", "Cout", "Kh", "Kw")


def _check_at_least(keys: tuple[str, ...], values, low: dict[str, int], where: str = "") -> None:
    """TensorIOError, prefixed with ``where``, for the first value below its
    key's bound in ``low`` (0 for a key not there)."""
    for key, value in zip(keys, values):
        if value < low.get(key, 0):
            raise TensorIOError(f"{where}{key} must be at least {low.get(key, 0)}, got {value}")


def lower_conv_to_gemm(dims: ConvDims) -> tuple[int, int, int]:
    """im2col dims: M = batch*H_out*W_out, K = C*Kh*Kw, N = out channels.
    Every dimension must be at least 0, and the kernel and stride at least 1."""
    _check_at_least(CONV_KEYS + ("stride", "pad"), vars(dims).values(),
                    {"Kh": 1, "Kw": 1, "stride": 1})
    h_out = (dims.height + 2 * dims.pad - dims.kh) // dims.stride + 1
    w_out = (dims.width + 2 * dims.pad - dims.kw) // dims.stride + 1
    if h_out <= 0 or w_out <= 0:
        raise TensorIOError(
            f"kernel {dims.kh}x{dims.kw} does not fit input "
            f"{dims.height}x{dims.width} with pad {dims.pad}"
        )
    m = dims.batch * h_out * w_out
    k = dims.in_channels * dims.kh * dims.kw
    return m, dims.out_channels, k


def _layer_from_json(d, path: str) -> GraphLayer:
    lid = _value(_require(d, ("layerId",), f"{path}: model layer")["layerId"],
                 f"{path}: model layer layerId", str)
    where = f"{path}: model layer {lid}"
    kind = d.get("kind", "gemm")
    if kind == "gemm":
        keys = ("M", "N", "K")
        _require(d, keys, where)
        m, n, k = dims = [_value(d[key], f"{where} {key}", int) for key in keys]
        _check_at_least(keys, dims, {}, f"{where}: ")
    elif kind == "conv":
        _require(d, CONV_KEYS, where)
        dims = ConvDims(*(_value(d[key], f"{where} {key}", int) for key in CONV_KEYS),
                        stride=_value(d.get("stride", 1), f"{where} stride", int),
                        pad=_value(d.get("pad", 0), f"{where} pad", int))
        try:
            m, n, k = lower_conv_to_gemm(dims)
        except TensorIOError as exc:
            raise TensorIOError(f"{where}: {exc}") from None
    else:
        raise TensorIOError(f"{where}: unknown layer kind {kind!r}")
    weight = _value(d.get("weightTensor"), f"{where} weightTensor", str, type(None))
    calib = _value(d.get("calibrationActivations"), f"{where} calibrationActivations",
                   list, type(None))
    for p in calib or ():
        _value(p, f"{where} calibrationActivations", str)
    base_dir = os.path.dirname(os.path.abspath(path))
    join = lambda p: p if os.path.isabs(p) else os.path.join(base_dir, p)
    return GraphLayer(
        lid, m, n, k,
        weight_path=join(weight) if weight else None,
        calibration_paths=[join(p) for p in calib] if calib else None,
    )


def load_model_graph(path: str) -> list[GraphLayer]:
    layers = [_layer_from_json(d, path)
              for d in _value(_require(_load_json(path), ("layers",), path)["layers"],
                              f"{path}: layers", list)]
    seen = set()
    for l in layers:
        where = f"{path}: model layer {l.layer_id}"
        if l.layer_id in seen:
            raise TensorIOError(f"{where}: duplicate layer id")
        seen.add(l.layer_id)
        for p in [l.weight_path, *(l.calibration_paths or [])]:
            if p and not os.path.exists(p):
                raise TensorIOError(f"{where}: referenced file not found: {p}")
    return layers


def save_plan(path: str, plan_json: dict) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(plan_json, indent=2, sort_keys=True) + "\n")


def load_plan(path: str, parse_float=float) -> dict:
    """A plan whose layers each have a unique string ``layerId`` and an
    integer ``width``.  A caller that reads none of its fractional numbers
    (scales, MSEs) may pass ``parse_float=str.encode`` to keep each as its
    JSON text, in ``bytes``: no JSON value decodes to ``bytes``, so every
    check that wants a string, an integer or a boolean still rejects one."""
    doc = _require(_load_json(path, parse_float), ("layers",), path)
    seen = set()
    for layer in _value(doc["layers"], f"{path}: layers", list):
        _require(layer, ("layerId", "width"), f"{path}: plan layer")
        lid = _value(layer["layerId"], f"{path}: plan layer layerId", str)
        _value(layer["width"], f"{path}: plan layer {lid} width", int)
        if lid in seen:
            raise TensorIOError(f"{path}: duplicate plan layer id {lid!r}")
        seen.add(lid)
    return doc


def plan_layer_width(layer: dict, where: str) -> int:
    """The width of a plan layer's weight and activation types, which must
    be one width, the layer's stated ``width``, and one the PE runs (4 or
    8)."""
    w, a = (_load_ntype(_require(_require(layer, (role,), where)[role], ("ntype",),
                                 f"{where} {role}")["ntype"], f"{where} {role} ntype")
            for role in ("weightType", "activationType"))
    if w.width != a.width:
        raise QuantizationError(f"{where}: weight type {w.name} and activation type {a.name} "
                                "differ in width")
    if layer["width"] != w.width:
        raise QuantizationError(f"{where}: width {layer['width']} disagrees with its types "
                                f"({w.name}, {a.name})")
    if w.width not in (4, 8):
        raise QuantizationError(f"{where}: width must be 4 or 8, got {w.width}")
    return w.width


# ---------------------------------------------------------------------------
# Array configs
# ---------------------------------------------------------------------------

# The JSON types a config field takes, by the type its field is annotated with.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "EnergyTable": (dict,)}


def _check_fields(doc, cls, where: str) -> dict:
    """Return the JSON object ``doc`` if every key names a field of the
    dataclass ``cls`` and every value has a JSON type its field takes."""
    types = {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(cls)}
    for key, value in _value(doc, where, dict).items():
        if key not in types:
            raise TensorIOError(f"{where}: unknown key {key!r}")
        _value(value, f"{where} {key}", *types[key])
    return doc


def load_array_config(path: str) -> sim.ArrayConfig:
    """An array config: a JSON object of ``ArrayConfig`` fields, any of them
    left out taking its default, with ``energy`` an object of
    ``EnergyTable`` costs.  Values the model cannot take are a
    SimConfigError prefixed with the path."""
    doc = _check_fields(_load_json(path), sim.ArrayConfig, f"{path}: config")
    _check_fields(doc.get("energy", {}), sim.EnergyTable, f"{path}: config energy")
    try:
        return sim.ArrayConfig.from_json(doc)
    except sim.SimConfigError as exc:
        raise sim.SimConfigError(f"{path}: config: {exc}") from None
