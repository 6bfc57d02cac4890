"""Golden selection outputs.

``select`` on a small seeded three-layer model (per-channel weights, one of
them with an all-zero channel; signed and unsigned activations; one layer
promoted to 8 bits) must reproduce the recorded plan, without its
manifest, and the recorded ``--mse-csv`` file byte for byte.  The files in
``tests/data`` were written by the brute-force-checked sort-once sweep that
searched one channel at a time, and rewritten when every kind's rounding
became nearest-value (only the pot and flint MSE figures moved); any change
to the scale search, the type selection, the promotion loop or their
serialization shows here.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import flintq
from flintq import cli, tensor_io

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PLAN = os.path.join(DATA, "golden_plan.json")
GOLDEN_MSE_CSV = os.path.join(DATA, "golden_mse.csv")
THRESHOLD = "0.08"


def write_golden_model(out_dir) -> str:
    """Write the model's tensors and graph into ``out_dir``; return the graph path."""
    rng = np.random.default_rng(20240501)
    layers = []
    specs = [
        # (layer id, weight shape, activation distribution, graph dimensions)
        ("conv1", (12, 27), "relu",
         {"kind": "conv", "N_batch": 1, "C": 3, "H": 8, "W": 8, "Cout": 12, "Kh": 3, "Kw": 3,
          "pad": 1}),
        ("conv2", (8, 108), "laplace",
         {"kind": "conv", "N_batch": 1, "C": 12, "H": 8, "W": 8, "Cout": 8, "Kh": 3, "Kw": 3,
          "stride": 2, "pad": 1}),
        ("fc", (10, 128), "t2", {"kind": "gemm", "M": 4, "N": 10, "K": 128}),
    ]
    for lid, shape, dist, dims in specs:
        w = rng.laplace(size=shape) * rng.lognormal(0.0, 0.7, size=(shape[0], 1)) * 0.05
        if lid == "conv2":
            w[3] = 0.0  # an all-zero channel falls back to scale 1.0
        if dist == "relu":
            a = np.maximum(rng.standard_normal(600), 0.0)
        elif dist == "laplace":
            a = rng.laplace(size=600)
        else:
            a = rng.standard_t(2, size=600)
        tensor_io.save_tensor(os.path.join(out_dir, f"{lid}.w"), w)
        tensor_io.save_tensor(os.path.join(out_dir, f"{lid}.a"), a)
        layers.append({"layerId": lid, **dims, "weightTensor": f"{lid}.w",
                       "calibrationActivations": [f"{lid}.a"]})
    path = os.path.join(out_dir, "model.json")
    with open(path, "w") as f:
        json.dump({"layers": layers}, f)
    return path


def select_outputs(out_dir) -> tuple[str, bytes]:
    """Run ``select`` on the golden model; return the plan text without its
    manifest, in the plan file's own layout, and the MSE CSV bytes."""
    model = write_golden_model(out_dir)
    plan, mse_csv = os.path.join(out_dir, "plan.json"), os.path.join(out_dir, "mse.csv")
    rc = cli.main(["select", model, "--threshold", THRESHOLD, "--out", plan,
                   "--mse-csv", mse_csv])
    assert rc == 0
    with open(plan) as f:
        doc = json.load(f)
    del doc["manifest"]
    with open(mse_csv, "rb") as f:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n", f.read()


@pytest.mark.parametrize("cpus", [1, 2])
def test_select_reproduces_golden_plan_and_mse_csv(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)  # the plan never depends on it
    plan_text, csv_bytes = select_outputs(str(tmp_path))
    with open(GOLDEN_PLAN) as f:
        assert plan_text == f.read()
    with open(GOLDEN_MSE_CSV, "rb") as f:
        assert csv_bytes == f.read()


# Counts the threads that ``select`` starts in a fresh interpreter, and
# whether it loaded concurrent.futures; prints the exit code and both.
_THREAD_PROBE = """
import json, sys, threading
starts = []
_start = threading.Thread.start
def _counting_start(self):
    starts.append(self.name)
    _start(self)
threading.Thread.start = _counting_start
from flintq import cli
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "starts": starts,
                  "futures": "concurrent.futures" in sys.modules}))
"""


def test_select_starts_no_thread(tmp_path):
    model = write_golden_model(str(tmp_path))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(flintq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, "select", model, "--threshold", THRESHOLD,
         "--out", str(tmp_path / "plan.json")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe == {"rc": 0, "starts": [], "futures": False}


def test_golden_model_covers_the_selection_paths():
    # What the golden files must exercise for the comparison to mean much.
    with open(GOLDEN_PLAN) as f:
        plan = json.load(f)
    layers = {l["layerId"]: l for l in plan["layers"]}
    assert sorted(l["width"] for l in layers.values()) == [4, 4, 8]
    assert all(l["weightType"]["axis"] == 0 for l in layers.values())
    assert layers["conv2"]["weightType"]["degenerate"]
    signs = {l["activationType"]["ntype"]["signed"] for l in layers.values()}
    assert signs == {True, False}
