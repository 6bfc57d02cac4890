"""File formats: raw tensors, quantized tensors, model graphs, plans.

On-disk layout for tensor files is one UTF-8 JSON header line terminated
by ``\\n``, followed by the raw payload:

* tensor file   -- header {"name", "shape", "dtype": "f32", "byteOrder":
  "little"}; payload is row-major little-endian float32.
* qtensor file  -- header {"shape", "ntype", "scales", "axis"}; payload
  is one code per byte (no bit packing).

Model graphs and precision plans are plain JSON documents.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .qtypes import NumericType, QTensor, QuantScheme
from .selector import ntype_from_json, ntype_to_json


class TensorIOError(ValueError):
    pass


NTYPE_KEYS = ("kind", "width", "signed")


def _require(doc, keys: tuple[str, ...], where: str) -> dict:
    """Return ``doc`` if it is a JSON object holding every key in ``keys``."""
    if not isinstance(doc, dict):
        raise TensorIOError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise TensorIOError(f"{where}: missing required key(s) {', '.join(missing)}")
    return doc


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise TensorIOError(f"{where}: expected a JSON list, got {type(value).__name__}")
    return value


def _read_header(f, path: str, keys: tuple[str, ...]) -> dict:
    line = f.readline()
    if not line.endswith(b"\n"):
        raise TensorIOError(f"{path}: missing or unterminated header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TensorIOError(f"{path}: malformed JSON header: {exc}") from exc
    return _require(header, keys, f"{path}: header")


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
    shape = tuple(header["shape"])
    expected = 4 * int(np.prod(shape, dtype=np.int64))
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
    _require(header["ntype"], NTYPE_KEYS, f"{path}: ntype")
    shape = tuple(header["shape"])
    expected = int(np.prod(shape, dtype=np.int64))
    if len(payload) != expected:
        raise TensorIOError(f"{path}: payload is {len(payload)} codes, expected {expected}")
    ntype = ntype_from_json(header["ntype"])
    codes = np.frombuffer(payload, dtype=np.uint8)
    if codes.size and int(codes.max()) >= (1 << ntype.width):
        raise TensorIOError(f"{path}: code exceeds {ntype.width}-bit width")
    scheme = QuantScheme(ntype, np.asarray(header["scales"]), axis=header.get("axis"))
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


def lower_conv_to_gemm(dims: ConvDims) -> tuple[int, int, int]:
    """im2col dims: M = batch*H_out*W_out, K = C*Kh*Kw, N = out channels."""
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


def _layer_from_json(d: dict, base_dir: str) -> GraphLayer:
    lid = _require(d, ("layerId",), "model layer")["layerId"]
    kind = d.get("kind", "gemm")
    if kind == "gemm":
        _require(d, ("M", "N", "K"), lid)
        m, n, k = int(d["M"]), int(d["N"]), int(d["K"])
    elif kind == "conv":
        _require(d, ("N_batch", "C", "H", "W", "Cout", "Kh", "Kw"), lid)
        dims = ConvDims(
            batch=int(d["N_batch"]), in_channels=int(d["C"]), height=int(d["H"]),
            width=int(d["W"]), out_channels=int(d["Cout"]), kh=int(d["Kh"]),
            kw=int(d["Kw"]), stride=int(d.get("stride", 1)), pad=int(d.get("pad", 0)),
        )
        m, n, k = lower_conv_to_gemm(dims)
    else:
        raise TensorIOError(f"{lid}: unknown layer kind {kind!r}")
    weight = d.get("weightTensor")
    calib = d.get("calibrationActivations")
    join = lambda p: p if os.path.isabs(p) else os.path.join(base_dir, p)
    return GraphLayer(
        lid, kind, m, n, k,
        weight_path=join(weight) if weight else None,
        calibration_paths=[join(p) for p in calib] if calib else None,
    )


def load_model_graph(path: str) -> list[GraphLayer]:
    with open(path) as f:
        doc = json.load(f)
    layers_doc = _require(doc, ("layers",), path)["layers"] if isinstance(doc, dict) else doc
    base = os.path.dirname(os.path.abspath(path))
    layers = [_layer_from_json(d, base) for d in _require_list(layers_doc, f"{path}: layers")]
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
        json.dump(plan_json, f, indent=2, sort_keys=True)
        f.write("\n")


def load_plan(path: str) -> dict:
    with open(path) as f:
        doc = _require(json.load(f), ("layers",), path)
    for layer in _require_list(doc["layers"], f"{path}: layers"):
        _require(layer, ("layerId", "width"), f"{path}: plan layer")
    return doc


def plan_layer_types(layer: dict, where: str) -> tuple[NumericType, NumericType]:
    """The weight and activation types one plan layer selects."""
    types = []
    for role in ("weightType", "activationType"):
        selection = _require(_require(layer, (role,), where)[role], ("ntype",), f"{where} {role}")
        types.append(ntype_from_json(_require(selection["ntype"], NTYPE_KEYS, f"{where} {role} ntype")))
    return tuple(types)
