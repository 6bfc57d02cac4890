"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every file a workload reads
(tensors, model graphs, plans, array configs) and returns a manifest that
records the file names, shapes and element counts.  The same seed always
gives the same files.  Only the values depend on the seed; the shapes are
fixed per workload, so every seed asks the program for the same amount of
work.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("plan-perchannel", "plan-large-tensor", "sim-datapath")

# Aggregate normalized-MSE targets passed to ``flintq select --threshold``.
# Each sits in a wide gap of the greedy promotion curve (the heavy-tailed
# layers are far above the others at 4 bits), so the same layers are
# promoted for every seed and plan_cycles does not depend on the seed.
PERCHANNEL_THRESHOLD = 0.15
LARGE_TENSOR_THRESHOLD = 0.05

# (layer id, C, H=W, Cout, kernel, stride, pad, activation distribution)
# ResNet-style shapes with narrowed output widths: every weight is
# (Cout, C*Kh*Kw) with 256..1152 elements per channel.
PERCHANNEL_CONVS = [
    ("res2a_3x3", 32, 56, 16, 3, 1, 1, "relu"),
    ("res3a_1x1", 256, 28, 16, 1, 1, 0, "relu"),
    ("res3b_3x3", 64, 28, 8, 3, 1, 1, "t3"),
    ("res4a_3x3", 128, 14, 8, 3, 2, 1, "relu"),
    ("res5a_1x1", 512, 7, 8, 1, 1, 0, "t2"),
]
PERCHANNEL_FC = ("fc", 2048, 10)  # (layer id, K, N): weight (N, K)
CALIB_FILE_ELEMS = 4096
CALIB_FILES = 2

# (layer id, weight elements, calibration file sizes, activation distribution)
LARGE_LAYERS = [
    ("embed", 16384, [196608], "relu"),
    ("proj", 32768, [65536, 65536], "laplace"),
]

QUANT_KINDS = ("int", "pot", "flint", "float")
QUANT_BITS = (4, 8)
SIM_ARRAY_SIZES = (32, 64, 128)


def _save_tensor(path: str, t: np.ndarray) -> None:
    """Same layout as ``flintq.tensor_io.save_tensor`` (written here so the
    generator does not import the program it feeds)."""
    t = np.ascontiguousarray(t, dtype="<f4")
    header = {"name": os.path.basename(path), "shape": list(t.shape),
              "dtype": "f32", "byteOrder": "little"}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(t.tobytes())


def _write_json(path: str, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)


def _activations(rng: np.random.Generator, dist: str, n: int) -> np.ndarray:
    if dist == "relu":
        return np.maximum(rng.normal(size=n), 0.0) * rng.uniform(0.5, 2.0)
    if dist == "laplace":
        return rng.laplace(size=n) * rng.uniform(0.5, 2.0)
    df = {"t2": 2.0, "t3": 3.0}[dist]
    return rng.standard_t(df, size=n) * rng.uniform(0.5, 2.0)


def _weights(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Laplace-like weights; per-channel magnitudes vary log-normally."""
    w = rng.laplace(size=shape) * 0.05
    if len(shape) == 2:
        w *= rng.lognormal(0.0, 0.5, size=(shape[0], 1))
    return w


def _write_layer(rng, out_dir, lid, dims, w, dist, calib_sizes, manifest) -> dict:
    """Write one layer's weight and calibration tensors; return its graph entry."""
    wf = f"{lid}.w.tensor"
    _save_tensor(os.path.join(out_dir, wf), w)
    manifest["tensors"][wf] = list(w.shape)
    calib = []
    for j, n in enumerate(calib_sizes):
        af = f"{lid}.a{j}.tensor"
        _save_tensor(os.path.join(out_dir, af), _activations(rng, dist, n))
        manifest["tensors"][af] = [n]
        calib.append(af)
    return {"layerId": lid, **dims, "weightTensor": wf, "calibrationActivations": calib}


def gen_plan_perchannel(rng, out_dir, manifest):
    calib = [CALIB_FILE_ELEMS] * CALIB_FILES
    layers = []
    for lid, c, hw, cout, k, stride, pad, dist in PERCHANNEL_CONVS:
        dims = {"kind": "conv", "N_batch": 1, "C": c, "H": hw, "W": hw, "Cout": cout,
                "Kh": k, "Kw": k, "stride": stride, "pad": pad}
        w = _weights(rng, (cout, c * k * k))
        layers.append(_write_layer(rng, out_dir, lid, dims, w, dist, calib, manifest))
    lid, k, n = PERCHANNEL_FC
    dims = {"kind": "gemm", "M": 1, "N": n, "K": k}
    layers.append(_write_layer(rng, out_dir, lid, dims, _weights(rng, (n, k)), "relu", calib,
                               manifest))
    _write_json(os.path.join(out_dir, "model.json"), {"layers": layers})
    manifest["model"] = "model.json"
    manifest["threshold"] = PERCHANNEL_THRESHOLD
    manifest["channels"] = sum(c[3] for c in PERCHANNEL_CONVS) + n


def gen_plan_large_tensor(rng, out_dir, manifest):
    layers = []
    for lid, nw, calib_sizes, dist in LARGE_LAYERS:
        dims = {"kind": "gemm", "M": 256, "N": 256, "K": nw // 256}
        layers.append(_write_layer(rng, out_dir, lid, dims, _weights(rng, (nw,)), dist,
                                   calib_sizes, manifest))
    _write_json(os.path.join(out_dir, "model.json"), {"layers": layers})
    manifest["model"] = "model.json"
    manifest["threshold"] = LARGE_TENSOR_THRESHOLD
    largest = max(manifest["tensors"], key=lambda f: int(np.prod(manifest["tensors"][f])))
    manifest["quantize_input"] = largest
    manifest["quantize_types"] = [[k, b] for k in QUANT_KINDS for b in QUANT_BITS]


# ---------------------------------------------------------------------------
# sim-datapath: graphs, plans and array configs (no tensors)
# ---------------------------------------------------------------------------

def resnet50_layers() -> list[dict]:
    """ResNet-50 at batch 1, 224x224: every conv plus the classifier."""
    layers = [{"layerId": "conv1", "kind": "conv", "N_batch": 1, "C": 3, "H": 224, "W": 224,
               "Cout": 64, "Kh": 7, "Kw": 7, "stride": 2, "pad": 3}]

    def conv(lid, c, hw, cout, k, stride, pad):
        layers.append({"layerId": lid, "kind": "conv", "N_batch": 1, "C": c, "H": hw,
                       "W": hw, "Cout": cout, "Kh": k, "Kw": k, "stride": stride, "pad": pad})

    c_in, hw = 64, 56  # after the stride-2 max pool
    for stage, (blocks, mid) in enumerate([(3, 64), (4, 128), (6, 256), (3, 512)], start=2):
        for b in range(blocks):
            stride = 2 if b == 0 and stage > 2 else 1
            name = f"res{stage}{chr(ord('a') + b)}"
            conv(f"{name}_1x1a", c_in, hw, mid, 1, 1, 0)
            conv(f"{name}_3x3", mid, hw, mid, 3, stride, 1)
            hw_out = hw // stride
            conv(f"{name}_1x1b", mid, hw_out, 4 * mid, 1, 1, 0)
            if b == 0:
                conv(f"{name}_proj", c_in, hw, 4 * mid, 1, stride, 0)
            c_in, hw = 4 * mid, hw_out
    layers.append({"layerId": "fc", "kind": "gemm", "M": 1, "N": 1000, "K": 2048})
    return layers


def transformer_layers(prefix: str, seq: int, hidden: int, heads: int, ffn: int) -> list[dict]:
    """One encoder block as GEMMs; attention heads are batched along M."""
    d = hidden // heads

    def g(name, m, n, k):
        return {"layerId": f"{prefix}_{name}", "kind": "gemm", "M": m, "N": n, "K": k}

    return [
        g("q", seq, hidden, hidden), g("k", seq, hidden, hidden), g("v", seq, hidden, hidden),
        g("scores", heads * seq, seq, d), g("context", heads * seq, d, seq),
        g("out", seq, hidden, hidden), g("ffn1", seq, ffn, hidden), g("ffn2", seq, hidden, ffn),
    ]


def _ntype(kind: str, width: int, signed: bool) -> dict:
    return {"kind": kind, "width": width, "signed": signed, "floatSplit": None}


def _selection(rng, kind, width, signed, channels):
    return {"ntype": _ntype(kind, width, signed),
            "scales": rng.uniform(0.001, 0.1, size=channels).tolist(),
            "axis": 0 if channels > 1 else None, "mse": 0.0,
            "perCandidateMse": {}, "degenerate": False}


def _plan(rng, graph_layers, widths):
    layers = []
    for layer, width in zip(graph_layers, widths):
        if width == 8:
            w_kind, a_kind = "int", "int"
        else:
            w_kind, a_kind = rng.choice(["int", "pot", "flint"], size=2).tolist()
        channels = layer.get("Cout", layer.get("N"))
        layers.append({
            "layerId": layer["layerId"], "width": width, "normalizedMse": 0.0,
            "weightType": _selection(rng, w_kind, width, True, channels),
            "activationType": _selection(rng, a_kind, width, True, 1),
        })
    return {"layers": layers, "aggregateMse": 0.0, "promotionOrder": []}


def _mixed_widths(graph_layers) -> list[int]:
    """First and last layer, projection shortcuts and FFN down-projections
    at 8 bits; everything else at 4 bits."""
    last = len(graph_layers) - 1
    return [8 if i in (0, last) or l["layerId"].endswith(("_proj", "_ffn2")) else 4
            for i, l in enumerate(graph_layers)]


def gen_sim_datapath(rng, out_dir, manifest):
    graphs = {
        "resnet50": resnet50_layers(),
        "bert_base": transformer_layers("bert", 128, 768, 12, 3072),
        "gpt_medium": transformer_layers("gpt", 512, 1024, 16, 4096),
    }
    combos = []
    for gname, glayers in graphs.items():
        _write_json(os.path.join(out_dir, f"{gname}.json"), {"layers": glayers})
        plans = {
            "all4": [4] * len(glayers),
            "all8": [8] * len(glayers),
            "mixed": _mixed_widths(glayers),
        }
        for pname, widths in plans.items():
            pf = f"{gname}.{pname}.plan.json"
            _write_json(os.path.join(out_dir, pf), _plan(rng, glayers, widths))
            for n in SIM_ARRAY_SIZES:
                for dataflow in ("os", "ws"):
                    combos.append([f"{gname}.json", pf, f"array{n}.json", dataflow])
        manifest["graphs"][gname] = len(glayers)
    for n in SIM_ARRAY_SIZES:
        _write_json(os.path.join(out_dir, f"array{n}.json"), {"n": n})
    manifest["combos"] = combos
    # plan_cycles on this workload: the mixed ResNet-50 plan at the default array.
    manifest["reference"] = ["resnet50.json", "resnet50.mixed.plan.json"]
    manifest["tables"] = [[k, b] for k in QUANT_KINDS for b in QUANT_BITS]


GENERATORS = {
    "plan-perchannel": gen_plan_perchannel,
    "plan-large-tensor": gen_plan_large_tensor,
    "sim-datapath": gen_sim_datapath,
}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs into ``out_dir``; return their manifest."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = {"workload": workload, "seed": seed, "tensors": {}, "graphs": {}}
    GENERATORS[workload](rng, out_dir, manifest)
    manifest["elements"] = int(sum(int(np.prod(s)) for s in manifest["tensors"].values()))
    _write_json(os.path.join(out_dir, "inputs.json"), manifest)
    return manifest
