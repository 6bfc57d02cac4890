"""Malformed input files: one field of a model, plan, array config, tensor
header or qtensor header is replaced by null, a string, a number with a
fraction, a boolean, a list, an object or an integer too large for a float,
or dropped.  No exception may leave ``cli.main``: every outcome is a
documented exit code, and an integer or number field of another type, or
out of range, is a malformed input file (exit 3)."""

import copy
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flintq import cli, sim, tensor_io
from flintq.qtypes import QuantizationError, dequantize

DROP = "<drop>"
HUGE = 10**400  # a JSON integer too large for a float
MUTATIONS = [None, "x", 2.5, True, [1], {"a": 1}, HUGE, DROP]

CONV_DIMS = ("N_batch", "C", "H", "W", "Cout", "Kh", "Kw", "stride", "pad")
INT_FIELDS = {
    "model": [("layers", 0, k) for k in ("M", "N", "K")] + [("layers", 1, k) for k in CONV_DIMS],
    "plan": [("layers", 0, "width"), ("layers", 0, "weightType", "ntype", "width"),
             ("layers", 0, "activationType", "ntype", "width")],
    "tensor": [("shape",), ("shape", 0)],
    "qtensor": [("shape",), ("shape", 0), ("ntype", "width")],
    "config": [("n",), ("buffer_bytes",)],
}
# Fields that take any JSON number: only 2.5 among the mutations is valid.
NUMBER_FIELDS = {
    "qtensor": [("scales", 0)],
    "config": [("dram_bandwidth_bits",)] + [("energy", k) for k in sim.ArrayConfig().to_json()["energy"]],
}
FILES = {"model": "model.json", "plan": "plan.json", "tensor": "w0.bin", "qtensor": "w0.q",
         "config": "config.json"}
JSON_DOCS = ("model", "plan", "config")


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """A model (a gemm and a conv layer), the plan `select` writes for it,
    its tensors, one qtensor and an array config naming every field, all
    valid."""
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
    (d / "config.json").write_text(json.dumps({**sim.ArrayConfig().to_json(), "n": 32}))
    assert cli.main(["select", str(d / "model.json"), "--threshold", "0",
                     "--promote-budget", "1", "--out", str(d / "plan.json")]) == 0
    assert cli.main(["quantize", str(d / "w0.bin"), "--type", "flint", "--signed",
                     "--out", str(d / "w0.q")]) == 0
    return str(d)


def _read(path: str, kind: str):
    """The document and, for tensor files, the payload after the header."""
    with open(path, "rb") as f:
        if kind in JSON_DOCS:
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
        if kind == "qtensor":  # no command reads a qtensor; the library call must map its failure
            try:
                dequantize(tensor_io.load_qtensor(target))
            except ValueError as exc:  # what cli.main maps to exit 3 or 4
                return cli.EXIT_INPUT if isinstance(exc, tensor_io.TensorIOError) else cli.EXIT_VALIDATION
            return 0
        return _run_commands(d, kind, capsys)


def _run_commands(d: str, kind: str, capsys) -> int:
    """Run the commands that read the ``kind`` file of directory ``d``;
    return the first failure's exit code, which must come with one
    ``error:`` line, or 0."""
    model, plan, config, tensor, out = (os.path.join(d, n) for n in
                                        ("model.json", "plan.json", "config.json", "w0.bin", "r"))
    runs = {
        "model": [["simulate", model, plan, "--out", out], ["select", model, "--out", plan]],
        "plan": [["simulate", model, plan, "--out", out]],
        "tensor": [["quantize", tensor, "--type", "int", "--signed", "--out", out]],
        "config": [["simulate", model, plan, "--config", config, "--out", out]],
    }[kind]
    capsys.readouterr()
    for argv in runs:
        rc = cli.main(argv)
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return rc
    return 0


def _cases(table, values):
    for kind, fields in table.items():
        for path in fields:
            for value in values:
                name = "1e400" if value is HUGE else value
                yield pytest.param(kind, path, value, id=f"{kind}-{'.'.join(map(str, path))}-{name}")


@pytest.mark.parametrize("kind, path, value", _cases(INT_FIELDS, MUTATIONS[:-1]))
def test_integer_field_of_another_type_exits_3(base_dir, capsys, kind, path, value):
    assert _run(base_dir, kind, path, value, capsys) == cli.EXIT_INPUT


@pytest.mark.parametrize("kind, path, value",
                         _cases(NUMBER_FIELDS, [v for v in MUTATIONS[:-1] if v != 2.5]))
def test_number_field_of_another_type_exits_3(base_dir, capsys, kind, path, value):
    assert _run(base_dir, kind, path, value, capsys) == cli.EXIT_INPUT


@pytest.mark.parametrize("doc, key", [
    ('{"n": "64"}', "n"), ('{"n": null}', "n"), ('{"nn": 64}', "nn"),
    ('{"dram_bandwidth_bits": "x"}', "dram_bandwidth_bits"), ('{"energy": {"x": 1}}', "x"),
    ('{"energy": null}', "energy"), ("[1]", "config"),
    ('{"energy": {"dram_per_bit": %d}}' % HUGE, "dram_per_bit"), ('{"n": %d}' % 2**63, "n"),
    ('{"dram_bandwidth_bits": NaN}', "dram_bandwidth_bits"),
])
def test_malformed_array_config_exits_3(base_dir, capsys, tmp_path, doc, key):
    config = tmp_path / "array.json"
    config.write_text(doc)
    capsys.readouterr()
    rc = cli.main(["simulate", os.path.join(base_dir, "model.json"),
                   os.path.join(base_dir, "plan.json"), "--config", str(config),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT and err.count("\n") == 1, err
    head, _, tail = err.partition(str(config))
    assert head == "error: " and key in tail, err


@pytest.mark.parametrize("doc, message", [
    ('{"n": 0}', "array dimension must be positive and even, got 0"),
    ('{"n": 63}', "array dimension must be positive and even, got 63"),
    ('{"dataflow": "xy"}', "dataflow must be 'os' or 'ws', got 'xy'"),
    ('{"buffer_bytes": 0}', "bandwidth and buffer size must be positive"),
    ('{"energy": {"mac4": -1}}', "energy cost mac4 must be >= 0"),
    # Valid alone, but not for the model's layers.
    ('{"dram_bandwidth_bits": 1e-320}', "l0: DRAM cycles overflow at 1e-320 bit/cycle"),
    ('{"buffer_bytes": 100}', "l0: tile working set 16384 B exceeds buffer 100 B (effective array 64x64)"),
])
def test_array_config_the_model_cannot_take_exits_4_naming_the_file(base_dir, capsys, tmp_path,
                                                                    doc, message):
    config = tmp_path / "array.json"
    config.write_text(doc)
    capsys.readouterr()
    rc = cli.main(["simulate", os.path.join(base_dir, "model.json"),
                   os.path.join(base_dir, "plan.json"), "--config", str(config),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION and err == f"error: {config}: config: {message}\n", err


# ntype objects of the right JSON types that name no numeric type.
BAD_NTYPES = [
    ({"kind": "posit", "width": 4, "signed": True}, "unknown kind 'posit'"),
    ({"kind": "int", "width": 9, "signed": True}, "width must be in [3, 8], got 9"),
    ({"kind": "float", "width": 4, "signed": True, "floatSplit": [3, 3]},
     "float split (3, 3) does not fill width 4"),
    ({"kind": "int", "width": 4, "signed": True, "floatSplit": [2, 1]},
     "int takes no float split, got (2, 1)"),
]


@pytest.mark.parametrize("ntype, message", BAD_NTYPES, ids=[m for _, m in BAD_NTYPES])
def test_plan_ntype_naming_no_type_exits_4_naming_the_file_and_layer(base_dir, capsys, tmp_path,
                                                                    ntype, message):
    doc, _ = _read(os.path.join(base_dir, "plan.json"), "plan")
    rc, err, plan = _simulate_plan(base_dir, capsys, tmp_path, _mutated(doc, A_NTYPE, ntype))
    assert rc == cli.EXIT_VALIDATION, err
    assert err == f"error: {plan}: plan layer l0 activationType ntype: {message}\n", err


@pytest.mark.parametrize("ntype, message", BAD_NTYPES, ids=[m for _, m in BAD_NTYPES])
def test_qtensor_ntype_naming_no_type_names_the_file(base_dir, tmp_path, ntype, message):
    path = tmp_path / "w0.q"
    header, payload = _read(os.path.join(base_dir, "w0.q"), "qtensor")
    path.write_bytes(json.dumps({**header, "ntype": ntype}).encode() + b"\n" + payload)
    with pytest.raises(QuantizationError) as e:
        tensor_io.load_qtensor(str(path))
    assert str(e.value) == f"{path}: ntype: {message}"


@pytest.mark.parametrize("scales, message", [([0], "scales must be positive and finite"),
                                             ([-0.5], "scales must be positive and finite"),
                                             ([0.5, 0.5], "per-tensor scheme takes exactly one scale")])
def test_qtensor_scales_the_scheme_cannot_take_name_the_file(base_dir, tmp_path, scales, message):
    path = tmp_path / "w0.q"
    header, payload = _read(os.path.join(base_dir, "w0.q"), "qtensor")
    path.write_bytes(json.dumps({**header, "scales": scales, "axis": None}).encode() + b"\n"
                     + payload)
    with pytest.raises(QuantizationError) as e:
        tensor_io.load_qtensor(str(path))
    assert str(e.value) == f"{path}: header scales: {message}"


@pytest.mark.parametrize("width, weight, activation, message", [
    (4, ("int", 8), ("int", 8), "width 4 disagrees"),
    (8, ("int", 4), ("int", 4), "width 8 disagrees"),
    (4, ("float", 8), ("float", 8), "width 4 disagrees"),
    (4, ("int", 4), ("flint", 8), "differ in width"),
    (5, ("int", 5), ("int", 5), "width must be 4 or 8, got 5"),
])
def test_inconsistent_plan_layer_exits_4(base_dir, capsys, tmp_path, width, weight, activation,
                                         message):
    """The simulator runs each layer at its types' width, which its stated
    ``width`` must match, whatever their kinds."""
    plan = tmp_path / "plan.json"
    with open(os.path.join(base_dir, "plan.json")) as f:
        doc = json.load(f)
    layer = doc["layers"][0]
    layer["width"] = width
    for role, (kind, bits) in (("weightType", weight), ("activationType", activation)):
        layer[role]["ntype"] = {"kind": kind, "width": bits, "signed": True, "floatSplit": None}
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["simulate", os.path.join(base_dir, "model.json"), str(plan),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION and err.count("\n") == 1, err
    assert err.startswith(f"error: {plan}: plan layer {layer['layerId']}: ") and message in err, err


@pytest.mark.parametrize("key, value, low", [("stride", 0, 1), ("pad", -1, 0), ("Kh", 0, 1),
                                            ("Kw", 0, 1)])
def test_conv_dims_out_of_range_exit_3_naming_the_layer(base_dir, capsys, tmp_path, key, value,
                                                        low):
    model = tmp_path / "model.json"
    doc, _ = _read(os.path.join(base_dir, "model.json"), "model")
    model.write_text(json.dumps(_mutated(doc, ("layers", 1, key), value)))
    capsys.readouterr()
    rc = cli.main(["simulate", str(model), os.path.join(base_dir, "plan.json"),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert err == f"error: {model}: model layer l1: {key} must be at least {low}, got {value}\n"


NEGATIVE_DIMS = [(0, k) for k in ("M", "N", "K")] + [(1, k) for k in ("N_batch", "C", "H", "W", "Cout")]


@pytest.mark.parametrize("layer, key", NEGATIVE_DIMS)
def test_negative_model_dims_exit_3_naming_the_layer(base_dir, capsys, tmp_path, layer, key):
    model = tmp_path / "model.json"
    doc, _ = _read(os.path.join(base_dir, "model.json"), "model")
    model.write_text(json.dumps(_mutated(doc, ("layers", layer, key), -1)))
    capsys.readouterr()
    rc = cli.main(["simulate", str(model), os.path.join(base_dir, "plan.json"),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert err == f"error: {model}: model layer l{layer}: {key} must be at least 0, got -1\n"


@pytest.mark.parametrize("layer, key", [(0, "M"), (0, "N"), (0, "K"), (1, "N_batch"), (1, "C"),
                                        (1, "Cout")])
def test_zero_model_dim_simulates_to_zero_cycles(base_dir, capsys, tmp_path, layer, key):
    # Zero stays a legal dimension: the layer costs nothing.
    inputs = shutil.copytree(base_dir, tmp_path / "inputs")
    model = inputs / "model.json"
    doc, _ = _read(str(model), "model")
    model.write_text(json.dumps(_mutated(doc, ("layers", layer, key), 0)))
    assert cli.main(["simulate", str(model), str(inputs / "plan.json"),
                     "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert [l["cycles"] for l in report["layers"] if l["layer_id"] == f"l{layer}"] == [0]


NUMBER = "<number>"


def _simulate_plan(base_dir, capsys, tmp_path, doc, text=None):
    """Exit code and stderr of ``simulate`` on the plan ``doc``, in which the
    string ``NUMBER`` stands for the raw JSON number ``text``."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc).replace(json.dumps(NUMBER), text or ""))
    capsys.readouterr()
    rc = cli.main(["simulate", os.path.join(base_dir, "model.json"), str(plan),
                   "--out", str(tmp_path / "r")])
    return rc, capsys.readouterr().err, str(plan)


W_NTYPE, A_NTYPE = (("layers", 0, role, "ntype") for role in ("weightType", "activationType"))
# A number with a fraction or an exponent where no number of that kind
# belongs: (field, number text, what the message says after the plan path).
MISPLACED_NUMBERS = [
    (("layers",), "2.5", "layers: expected a JSON list, got 2.5"),
    (("layers", 0, "layerId"), "2.5", "plan layer layerId: expected a string, got 2.5"),
    *((("layers", 0, "width"), text, f"plan layer l0 width: expected an integer, got {got}")
      for text, got in [("4.0", "4.0"), ("4e0", "4.0"), ("1e400", "Infinity")]),
    *((W_NTYPE + ("width",), text,
       f"plan layer l0 weightType ntype width: expected an integer, got {got}")
      for text, got in [("4.0", "4.0"), ("4e0", "4.0"), ("1e400", "Infinity")]),
    (A_NTYPE + ("signed",), "2.5",
     "plan layer l0 activationType ntype signed: expected true or false, got 2.5"),
    (W_NTYPE + ("floatSplit",), "[2.5, 1]",
     "plan layer l0 weightType ntype floatSplit: expected two integers, got [2.5, 1]"),
    (W_NTYPE + ("kind",), "2.5", "plan layer l0 weightType ntype kind: expected a string, got 2.5"),
]


@pytest.mark.parametrize("path, text, message", MISPLACED_NUMBERS,
                         ids=[f"{'.'.join(map(str, p))}-{t}" for p, t, _ in MISPLACED_NUMBERS])
def test_plan_number_where_none_belongs_exits_3(base_dir, capsys, tmp_path, path, text, message):
    """``simulate`` leaves a plan's fractional numbers undecoded; each one
    in a field that takes none is still reported as its number."""
    doc, _ = _read(os.path.join(base_dir, "plan.json"), "plan")
    rc, err, plan = _simulate_plan(base_dir, capsys, tmp_path, _mutated(doc, path, NUMBER), text)
    assert rc == cli.EXIT_INPUT and err == f"error: {plan}: {message}\n", err


@pytest.mark.parametrize("split", [[HUGE, 1], [3, 2**63], [-2**63 - 1, 0]],
                         ids=["1e400", "2**63", "-2**63-1"])
def test_plan_float_split_element_out_of_range_exits_3(base_dir, capsys, tmp_path, split):
    doc, _ = _read(os.path.join(base_dir, "plan.json"), "plan")
    rc, err, plan = _simulate_plan(base_dir, capsys, tmp_path,
                                   _mutated(doc, W_NTYPE + ("floatSplit",), split))
    assert rc == cli.EXIT_INPUT, err
    assert err == (f"error: {plan}: plan layer l0 weightType ntype floatSplit: "
                   "integer out of range [-2**63, 2**63)\n"), err


def test_plan_float_split_elements_at_the_bound_name_no_type(base_dir, capsys, tmp_path):
    doc, _ = _read(os.path.join(base_dir, "plan.json"), "plan")
    rc, err, _ = _simulate_plan(base_dir, capsys, tmp_path,
                                _mutated(doc, W_NTYPE + ("floatSplit",), [2**63 - 1, -2**63]))
    assert rc == cli.EXIT_VALIDATION, err


def test_qtensor_axis_out_of_range_names_the_axis(base_dir, tmp_path):
    path = tmp_path / "w0.q"
    header, payload = _read(os.path.join(base_dir, "w0.q"), "qtensor")
    path.write_bytes(json.dumps({**header, "axis": HUGE}).encode() + b"\n" + payload)
    with pytest.raises(tensor_io.TensorIOError) as e:
        tensor_io.load_qtensor(str(path))
    assert str(e.value) == f"{path}: header axis: integer out of range [-2**63, 2**63)"


@pytest.mark.parametrize("text", ["1.2.3", "1e", ".5", "01", "-", "1."])
def test_malformed_number_in_plan_scales_exits_3(base_dir, capsys, tmp_path, text):
    """The scales go undecoded, but the JSON grammar of each is still checked."""
    doc, _ = _read(os.path.join(base_dir, "plan.json"), "plan")
    doc = _mutated(doc, ("layers", 1, "activationType", "scales", 0), NUMBER)
    rc, err, plan = _simulate_plan(base_dir, capsys, tmp_path, doc, text)
    assert rc == cli.EXIT_INPUT and err.count("\n") == 1, err
    assert err.startswith(f"error: {plan}: malformed JSON: "), err


def test_plan_listing_a_layer_twice_exits_3(base_dir, capsys, tmp_path):
    """A second ``l0`` with the other layer's types is not simulated in
    place of the first."""
    doc, _ = _read(os.path.join(base_dir, "plan.json"), "plan")
    doc["layers"].append({**doc["layers"][1], "layerId": "l0"})
    rc, err, plan = _simulate_plan(base_dir, capsys, tmp_path, doc)
    assert rc == cli.EXIT_INPUT and err == f"error: {plan}: duplicate plan layer id 'l0'\n", err


@pytest.mark.parametrize("kind", ["model", "plan", "config", "tensor"])
@pytest.mark.parametrize("content", [None, b"\xff"], ids=["directory", "non-utf8"])
def test_unreadable_input_file_exits_3(base_dir, capsys, tmp_path, kind, content):
    """A directory, or a byte that is not UTF-8, in place of an input file."""
    d = str(tmp_path / "in")
    shutil.copytree(base_dir, d)
    target = os.path.join(d, FILES[kind])
    os.remove(target)
    if content is None:
        os.mkdir(target)
    else:
        with open(target, "wb") as f:
            f.write(content)
    assert _run_commands(d, kind, capsys) == cli.EXIT_INPUT


@pytest.mark.parametrize("command", ["quantize", "select", "simulate"])
def test_output_path_that_is_a_directory_exits_3(base_dir, capsys, tmp_path, command):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "out.json").mkdir()  # simulate writes <prefix>.json
    model, plan = os.path.join(base_dir, "model.json"), os.path.join(base_dir, "plan.json")
    argv = {
        "quantize": ["quantize", os.path.join(base_dir, "w0.bin"), "--type", "int", "--signed"],
        "select": ["select", model],
        "simulate": ["simulate", model, plan],
    }[command]
    capsys.readouterr()
    rc = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT and err.startswith("error: ") and err.count("\n") == 1, err


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
    if path in NUMBER_FIELDS.get(kind, ()) and value not in (2.5, DROP):
        assert rc == cli.EXIT_INPUT
