"""Malformed input files: one field of a model, plan, tensor header or
qtensor header is replaced by null, a string, a number with a fraction, a
boolean, a list or an object, or dropped.  No exception may leave
``cli.main``: every outcome is a documented exit code, and an integer field
of any other type is a malformed input file (exit 3)."""

import copy
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flintq import cli, tensor_io
from flintq.qtypes import dequantize

DROP = "<drop>"
MUTATIONS = [None, "x", 2.5, True, [1], {"a": 1}, DROP]

CONV_DIMS = ("N_batch", "C", "H", "W", "Cout", "Kh", "Kw", "stride", "pad")
INT_FIELDS = {
    "model": [("layers", 0, k) for k in ("M", "N", "K")] + [("layers", 1, k) for k in CONV_DIMS],
    "plan": [("layers", 0, "width"), ("layers", 0, "weightType", "ntype", "width"),
             ("layers", 0, "activationType", "ntype", "width")],
    "tensor": [("shape",), ("shape", 0)],
    "qtensor": [("shape",), ("shape", 0), ("ntype", "width")],
}
FILES = {"model": "model.json", "plan": "plan.json", "tensor": "w0.bin", "qtensor": "w0.q"}


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """A model (a gemm and a conv layer), the plan `select` writes for it,
    its tensors and one qtensor, all valid."""
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(0)
    layers = []
    for i, dims in enumerate([
        {"kind": "gemm", "M": 4, "N": 8, "K": 12},
        {"kind": "conv", "N_batch": 1, "C": 2, "H": 4, "W": 4, "Cout": 8, "Kh": 3, "Kw": 2,
         "stride": 1, "pad": 1},
    ]):
        tensor_io.save_tensor(str(d / f"w{i}.bin"), rng.normal(size=(8, 12)))
        tensor_io.save_tensor(str(d / f"a{i}.bin"), rng.normal(size=40) * (1 - 2 * i))
        layers.append({"layerId": f"l{i}", **dims, "weightTensor": f"w{i}.bin",
                       "calibrationActivations": [f"a{i}.bin"]})
    (d / "model.json").write_text(json.dumps({"layers": layers}))
    assert cli.main(["select", str(d / "model.json"), "--threshold", "0",
                     "--promote-budget", "1", "--out", str(d / "plan.json")]) == 0
    assert cli.main(["quantize", str(d / "w0.bin"), "--type", "flint", "--signed",
                     "--out", str(d / "w0.q")]) == 0
    return str(d)


def _read(path: str, kind: str):
    """The document and, for tensor files, the payload after the header."""
    with open(path, "rb") as f:
        if kind in ("model", "plan"):
            return json.load(f), b""
        return json.loads(f.readline()), f.read()


def _paths(doc, prefix=()):
    """Every key path below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run(base: str, kind: str, path, value, capsys) -> int:
    """Write the mutated file into a copy of ``base``, run the commands that
    read it and return the exit code (the first failure's, if any)."""
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "in")
        shutil.copytree(base, d)
        target = os.path.join(d, FILES[kind])
        doc, payload = _read(target, kind)
        text = json.dumps(_mutated(doc, path, value))
        with open(target, "wb") as f:
            f.write(text.encode() + (b"\n" + payload if kind in ("tensor", "qtensor") else b""))
        model, plan, out = (os.path.join(d, n) for n in ("model.json", "plan.json", "r"))
        if kind == "qtensor":  # no command reads a qtensor; the library call must map its failure
            try:
                dequantize(tensor_io.load_qtensor(target))
            except ValueError as exc:  # what cli.main maps to exit 3 or 4
                return cli.EXIT_INPUT if isinstance(exc, tensor_io.TensorIOError) else cli.EXIT_VALIDATION
            return 0
        runs = {
            "model": [["simulate", model, plan, "--out", out], ["select", model, "--out", plan]],
            "plan": [["simulate", model, plan, "--out", out]],
            "tensor": [["quantize", target, "--type", "int", "--signed", "--out", out]],
        }[kind]
        capsys.readouterr()
        for argv in runs:
            rc = cli.main(argv)
            err = capsys.readouterr().err
            if rc:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                return rc
        return 0


def _int_cases():
    for kind, fields in INT_FIELDS.items():
        for path in fields:
            for value in MUTATIONS[:-1]:
                yield pytest.param(kind, path, value, id=f"{kind}-{'.'.join(map(str, path))}-{value}")


@pytest.mark.parametrize("kind, path, value", _int_cases())
def test_integer_field_of_another_type_exits_3(base_dir, capsys, kind, path, value):
    assert _run(base_dir, kind, path, value, capsys) == cli.EXIT_INPUT


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def test_unchanged_inputs_exit_0(base_dir, capsys):
    for kind in FILES:
        doc, _ = _read(os.path.join(base_dir, FILES[kind]), kind)
        path = next(_paths(doc))
        assert _run(base_dir, kind, path, _get(doc, path), capsys) == 0


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_malformed_field_exits_with_a_documented_code(base_dir, capsys, data):
    kind = data.draw(st.sampled_from(sorted(FILES)), label="file")
    doc, _ = _read(os.path.join(base_dir, FILES[kind]), kind)
    path = data.draw(st.sampled_from(list(_paths(doc))), label="field")
    value = data.draw(st.sampled_from(MUTATIONS), label="value")
    rc = _run(base_dir, kind, path, value, capsys)
    assert rc in (0, cli.EXIT_INPUT, cli.EXIT_VALIDATION, cli.EXIT_PLAN_MISMATCH)
    if path in INT_FIELDS[kind] and value != DROP:
        assert rc == cli.EXIT_INPUT
