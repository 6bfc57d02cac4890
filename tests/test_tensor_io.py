import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flintq import tensor_io
from flintq.qtypes import NumericType, QuantScheme, dequantize, quantize


def write_model(tmp_path, layers):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"layers": layers}))
    return str(path)


# ---------------------------------------------------------------------------
# Tensor files
# ---------------------------------------------------------------------------

def test_tensor_roundtrip(tmp_path):
    t = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    p = str(tmp_path / "t.bin")
    tensor_io.save_tensor(p, t, name="weights")
    back = tensor_io.load_tensor(p)
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back, t)


def test_tensor_header_is_one_json_line(tmp_path):
    p = str(tmp_path / "t.bin")
    tensor_io.save_tensor(p, np.zeros(3), name="x")
    with open(p, "rb") as f:
        header = json.loads(f.readline())
        payload = f.read()
    assert header == {"name": "x", "shape": [3], "dtype": "f32", "byteOrder": "little"}
    assert payload == b"\x00" * 12


def test_tensor_truncated_payload(tmp_path):
    p = str(tmp_path / "t.bin")
    tensor_io.save_tensor(p, np.zeros(4))
    with open(p, "r+b") as f:
        f.truncate(os.path.getsize(p) - 4)
    with pytest.raises(tensor_io.TensorIOError, match="expected 16"):
        tensor_io.load_tensor(p)


def test_tensor_bad_header(tmp_path):
    p = str(tmp_path / "t.bin")
    p2 = str(tmp_path / "t2.bin")
    with open(p, "wb") as f:
        f.write(b"not json\n")
    with pytest.raises(tensor_io.TensorIOError, match="malformed"):
        tensor_io.load_tensor(p)
    with open(p2, "wb") as f:
        f.write(b"{\"no newline\": 1}")
    with pytest.raises(tensor_io.TensorIOError, match="header"):
        tensor_io.load_tensor(p2)


def test_tensor_rejects_wrong_dtype_and_order(tmp_path):
    for field, val in (("dtype", "f64"), ("byteOrder", "big")):
        p = str(tmp_path / f"{field}.bin")
        header = {"name": "", "shape": [1], "dtype": "f32", "byteOrder": "little"}
        header[field] = val
        with open(p, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + b"\x00" * 4)
        with pytest.raises(tensor_io.TensorIOError):
            tensor_io.load_tensor(p)


def test_tensor_rejects_non_finite_with_index(tmp_path):
    p = str(tmp_path / "t.bin")
    t = np.zeros(5, dtype="<f4")
    t[3] = np.inf
    header = {"name": "", "shape": [5], "dtype": "f32", "byteOrder": "little"}
    with open(p, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n" + t.tobytes())
    with pytest.raises(tensor_io.TensorIOError, match="index 3"):
        tensor_io.load_tensor(p)


@settings(max_examples=25)
@given(t=arrays(np.float32, (3, 5), elements=st.floats(np.float32(-1e20), np.float32(1e20), width=32)))
def test_tensor_roundtrip_property(tmp_path_factory, t):
    p = str(tmp_path_factory.mktemp("io") / "t.bin")
    tensor_io.save_tensor(p, t)
    assert np.array_equal(tensor_io.load_tensor(p), t.astype(np.float64))


# ---------------------------------------------------------------------------
# QTensor files
# ---------------------------------------------------------------------------

def test_qtensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.normal(size=(4, 8))
    scheme = QuantScheme(
        NumericType("flint", 4, True), np.full(4, 0.25), axis=0
    )
    q = quantize(t, scheme)
    p = str(tmp_path / "q.bin")
    tensor_io.save_qtensor(p, q)
    back = tensor_io.load_qtensor(p)
    assert np.array_equal(back.codes, q.codes)
    assert back.shape == q.shape
    assert back.scheme.ntype == q.scheme.ntype
    assert back.scheme.axis == 0
    assert np.array_equal(dequantize(back), dequantize(q))


def test_qtensor_one_code_per_byte(tmp_path):
    q = quantize(
        np.array([0.0, 1.0, 6.0]),
        QuantScheme(NumericType("flint", 4, False), np.array([1.0])),
    )
    p = str(tmp_path / "q.bin")
    tensor_io.save_qtensor(p, q)
    with open(p, "rb") as f:
        f.readline()
        assert f.read() == bytes([0b0000, 0b0001, 0b0110])


def test_qtensor_rejects_code_overflow(tmp_path):
    p = str(tmp_path / "q.bin")
    header = {
        "shape": [1],
        "ntype": {"kind": "int", "width": 4, "signed": True, "floatSplit": None},
        "scales": [1.0],
        "axis": None,
    }
    with open(p, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n" + bytes([16]))
    with pytest.raises(tensor_io.TensorIOError, match="width"):
        tensor_io.load_qtensor(p)


# ---------------------------------------------------------------------------
# Conv lowering
# ---------------------------------------------------------------------------

def test_lower_conv_to_gemm():
    dims = tensor_io.ConvDims(
        batch=2, in_channels=3, height=8, width=8,
        out_channels=16, kh=3, kw=3, stride=1, pad=1,
    )
    assert tensor_io.lower_conv_to_gemm(dims) == (2 * 8 * 8, 16, 3 * 3 * 3)


def test_lower_conv_strided():
    dims = tensor_io.ConvDims(1, 4, 32, 32, 8, 3, 3, stride=2, pad=0)
    # H_out = W_out = (32 - 3)//2 + 1 = 15
    assert tensor_io.lower_conv_to_gemm(dims) == (225, 8, 36)


def test_lower_conv_kernel_too_big():
    with pytest.raises(tensor_io.TensorIOError):
        tensor_io.lower_conv_to_gemm(tensor_io.ConvDims(1, 1, 2, 2, 1, 5, 5))


@pytest.mark.parametrize("stride", [0, -1])
def test_lower_conv_rejects_stride_below_one(stride):
    with pytest.raises(tensor_io.TensorIOError, match="stride"):
        tensor_io.lower_conv_to_gemm(tensor_io.ConvDims(1, 1, 4, 4, 1, 3, 3, stride=stride))


# ---------------------------------------------------------------------------
# Model graphs
# ---------------------------------------------------------------------------

def test_load_model_graph(tmp_path):
    tensor_io.save_tensor(str(tmp_path / "w0.bin"), np.zeros((4, 4)))
    tensor_io.save_tensor(str(tmp_path / "act.bin"), np.zeros(8))
    model = write_model(tmp_path, [
        {"layerId": "fc", "kind": "gemm", "M": 1, "N": 4, "K": 4,
         "weightTensor": "w0.bin", "calibrationActivations": ["act.bin"]},
        {"layerId": "conv", "kind": "conv", "N_batch": 1, "C": 2, "H": 4,
         "W": 4, "Cout": 3, "Kh": 3, "Kw": 3, "pad": 1},
    ])
    layers = tensor_io.load_model_graph(model)
    assert [l.layer_id for l in layers] == ["fc", "conv"]
    assert layers[0].weight_path == str(tmp_path / "w0.bin")  # resolved relative
    assert (layers[1].m, layers[1].n, layers[1].k) == (16, 3, 18)


def test_model_graph_duplicate_ids(tmp_path):
    model = write_model(tmp_path, [
        {"layerId": "a", "M": 1, "N": 1, "K": 1},
        {"layerId": "a", "M": 2, "N": 2, "K": 2},
    ])
    with pytest.raises(tensor_io.TensorIOError, match="duplicate"):
        tensor_io.load_model_graph(model)


def test_model_graph_missing_file(tmp_path):
    model = write_model(tmp_path, [
        {"layerId": "a", "M": 1, "N": 1, "K": 1, "weightTensor": "nope.bin"},
    ])
    with pytest.raises(tensor_io.TensorIOError, match="not found"):
        tensor_io.load_model_graph(model)


def test_model_graph_unknown_kind(tmp_path):
    model = write_model(tmp_path, [{"layerId": "a", "kind": "pool"}])
    with pytest.raises(tensor_io.TensorIOError, match="unknown layer kind"):
        tensor_io.load_model_graph(model)


def test_plan_roundtrip(tmp_path):
    p = str(tmp_path / "plan.json")
    doc = {"layers": [{"layerId": "a", "width": 4}], "aggregateMse": 0.5}
    tensor_io.save_plan(p, doc)
    assert tensor_io.load_plan(p) == doc
