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
from .qtypes import NumericType, QTensor, QuantScheme
from .selector import ntype_from_json, ntype_to_json


class TensorIOError(ValueError):
    pass


NTYPE_KEYS = ("kind", "width", "signed")

# JSON decodes to these types only; int never admits true or false here.
_JSON_NAMES = {dict: "a JSON object", list: "a JSON list", str: "a string", int: "an integer",
               float: "a number", bool: "true or false", type(None): "null"}


def _require_type(value, where: str, *types: type):
    """Return ``value`` if its exact type is one of ``types``."""
    if type(value) not in types:
        want = " or ".join(_JSON_NAMES[t] for t in types)
        got = json.dumps(value, default=float)  # number text read as bytes prints as its number
        if len(got) > 40:
            got = got[:37] + "..."
        raise TensorIOError(f"{where}: expected {want}, got {got}")
    return value


def _require(doc, keys: tuple[str, ...], where: str) -> dict:
    """Return ``doc`` if it is a JSON object holding every key in ``keys``."""
    missing = [k for k in keys if k not in _require_type(doc, where, dict)]
    if missing:
        raise TensorIOError(f"{where}: missing required key(s) {', '.join(missing)}")
    return doc


# Every JSON integer an input holds must lie in [-2**63, 2**63), so that
# no arithmetic on it overflows a float.
INT_BOUND = 1 << 63


def _bounded(value: int, where: str) -> int:
    if not -INT_BOUND <= value < INT_BOUND:
        raise TensorIOError(f"{where}: integer out of range [-2**63, 2**63)")
    return value


def _require_int(doc: dict, key: str, where: str, default: int | None = None) -> int:
    """``doc[key]`` (``default`` if given and the key is absent) if it is a
    JSON integer within the bound: null, true/false, a number with a
    fraction or exponent, a string, a list or an object is malformed."""
    value = doc[key] if default is None else doc.get(key, default)
    return _bounded(_require_type(value, f"{where} {key}", int), f"{where} {key}")


def _require_number(value, where: str) -> int | float:
    """``value`` if it is a JSON integer within the bound or a finite number."""
    if type(_require_type(value, where, int, float)) is int:
        return _bounded(value, where)
    if not math.isfinite(value):
        raise TensorIOError(f"{where}: expected a finite number, got {value}")
    return value


def _require_shape(header: dict, path: str) -> tuple[int, ...]:
    where = f"{path}: header shape"
    shape = tuple(_require_type(header["shape"], where, list))
    for dim in shape:
        if _bounded(_require_type(dim, where, int), where) < 0:
            raise TensorIOError(f"{where}: negative dimension {dim}")
    return shape


def _load_ntype(doc, where: str) -> NumericType:
    """The numeric type an ``ntype`` object names; its kind must be a string,
    its width an integer, ``signed`` true or false and ``floatSplit`` null or
    two integers."""
    _require(doc, NTYPE_KEYS, where)
    _require_type(doc["kind"], f"{where} kind", str)
    _require_int(doc, "width", where)
    _require_type(doc["signed"], f"{where} signed", bool)
    split = _require_type(doc.get("floatSplit"), f"{where} floatSplit", list, type(None))
    if split is not None and (len(split) != 2 or any(type(v) is not int for v in split)):
        raise TensorIOError(f"{where} floatSplit: expected two integers, "
                            f"got {json.dumps(split, default=float)}")
    return ntype_from_json(doc)


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
    scales = [_require_number(v, f"{path}: header scales")
              for v in _require_type(header["scales"], f"{path}: header scales", list)]
    axis = _require_type(header.get("axis"), f"{path}: header axis", int, type(None))
    if axis is not None and not (0 <= axis < len(shape) and len(scales) == shape[axis]):
        raise TensorIOError(f"{path}: {len(scales)} scales along axis {axis} of shape {list(shape)}")
    scheme = QuantScheme(ntype, np.asarray(scales, dtype=np.float64), axis=axis)
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
    kind: str  # "gemm" | "conv"
    m: int
    n: int
    k: int
    weight_path: str | None = None
    calibration_paths: list[str] | None = None


# The required keys of a conv layer, in ConvDims field order.
CONV_KEYS = ("N_batch", "C", "H", "W", "Cout", "Kh", "Kw")


def lower_conv_to_gemm(dims: ConvDims) -> tuple[int, int, int]:
    """im2col dims: M = batch*H_out*W_out, K = C*Kh*Kw, N = out channels."""
    for key, value, low in (("stride", dims.stride, 1), ("pad", dims.pad, 0),
                            ("Kh", dims.kh, 1), ("Kw", dims.kw, 1)):
        if value < low:
            raise TensorIOError(f"{key} must be at least {low}, got {value}")
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
    lid = _require_type(_require(d, ("layerId",), f"{path}: model layer")["layerId"],
                        f"{path}: model layer layerId", str)
    where = f"{path}: model layer {lid}"
    kind = d.get("kind", "gemm")
    if kind == "gemm":
        _require(d, ("M", "N", "K"), where)
        m, n, k = (_require_int(d, key, where) for key in ("M", "N", "K"))
    elif kind == "conv":
        _require(d, CONV_KEYS, where)
        dims = ConvDims(*(_require_int(d, key, where) for key in CONV_KEYS),
                        stride=_require_int(d, "stride", where, 1),
                        pad=_require_int(d, "pad", where, 0))
        try:
            m, n, k = lower_conv_to_gemm(dims)
        except TensorIOError as exc:
            raise TensorIOError(f"{where}: {exc}") from None
    else:
        raise TensorIOError(f"{where}: unknown layer kind {kind!r}")
    weight = _require_type(d.get("weightTensor"), f"{where} weightTensor", str, type(None))
    calib = _require_type(d.get("calibrationActivations"), f"{where} calibrationActivations",
                          list, type(None))
    for p in calib or ():
        _require_type(p, f"{where} calibrationActivations", str)
    base_dir = os.path.dirname(os.path.abspath(path))
    join = lambda p: p if os.path.isabs(p) else os.path.join(base_dir, p)
    return GraphLayer(
        lid, kind, m, n, k,
        weight_path=join(weight) if weight else None,
        calibration_paths=[join(p) for p in calib] if calib else None,
    )


def load_model_graph(path: str) -> list[GraphLayer]:
    doc = _load_json(path)
    layers_doc = _require(doc, ("layers",), path)["layers"] if isinstance(doc, dict) else doc
    layers = [_layer_from_json(d, path)
              for d in _require_type(layers_doc, f"{path}: layers", list)]
    seen = set()
    for l in layers:
        if l.layer_id in seen:
            raise TensorIOError(f"duplicate layer id {l.layer_id!r}")
        seen.add(l.layer_id)
        for p in [l.weight_path, *(l.calibration_paths or [])]:
            if p and not os.path.exists(p):
                raise TensorIOError(f"{l.layer_id}: referenced file not found: {p}")
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
    for layer in _require_type(doc["layers"], f"{path}: layers", list):
        _require(layer, ("layerId", "width"), f"{path}: plan layer")
        lid = _require_type(layer["layerId"], f"{path}: plan layer layerId", str)
        _require_int(layer, "width", f"{path}: plan layer {lid}")
        if lid in seen:
            raise TensorIOError(f"{path}: duplicate plan layer id {lid!r}")
        seen.add(lid)
    return doc


def plan_layer_types(layer: dict, where: str) -> tuple[NumericType, NumericType]:
    """The weight and activation types one plan layer selects."""
    types = []
    for role in ("weightType", "activationType"):
        selection = _require(_require(layer, (role,), where)[role], ("ntype",), f"{where} {role}")
        types.append(_load_ntype(selection["ntype"], f"{where} {role} ntype"))
    return tuple(types)


# ---------------------------------------------------------------------------
# Array configs
# ---------------------------------------------------------------------------

def _config_fields(doc, cls, where: str) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a JSON object: every
    key names a field, and every value has the type its field is annotated
    with (``float`` takes any JSON number)."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in _require_type(doc, where, dict).items():
        if key not in types:
            raise TensorIOError(f"{where}: unknown key {key!r}")
        at = f"{where} {key}"
        if types[key] == "float":
            kwargs[key] = _require_number(value, at)
        elif types[key] == "int":
            kwargs[key] = _bounded(_require_type(value, at, int), at)
        else:
            kwargs[key] = _require_type(value, at, {"str": str, "EnergyTable": dict}[types[key]])
    return kwargs


def load_array_config(path: str) -> sim.ArrayConfig:
    """An array config: a JSON object of ``ArrayConfig`` fields, any of them
    left out taking its default, with ``energy`` an object of
    ``EnergyTable`` costs."""
    kwargs = _config_fields(_load_json(path), sim.ArrayConfig, f"{path}: config")
    if "energy" in kwargs:
        kwargs["energy"] = sim.EnergyTable(**_config_fields(kwargs["energy"], sim.EnergyTable,
                                                            f"{path}: config energy"))
    return sim.ArrayConfig(**kwargs)
