import csv
import json
import re

import numpy as np
import pytest

from flintq import cli, pe, qtypes, sim, tensor_io, verify
from flintq.qtypes import KINDS, NumericType, dequantize

TABLE_UNSIGNED4 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 24, 32, 64]


def make_model(tmp_path, n_layers=2, seed=0):
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        w = rng.normal(size=(8, 16)) * (1 + i)
        a = np.abs(rng.normal(size=64))
        tensor_io.save_tensor(str(tmp_path / f"w{i}.bin"), w)
        tensor_io.save_tensor(str(tmp_path / f"a{i}.bin"), a)
        layers.append({
            "layerId": f"fc{i}", "kind": "gemm", "M": 32, "N": 16, "K": 8,
            "weightTensor": f"w{i}.bin",
            "calibrationActivations": [f"a{i}.bin"],
        })
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"layers": layers}))
    return str(model)


def run_select(tmp_path, *extra):
    model = make_model(tmp_path)
    plan = str(tmp_path / "plan.json")
    rc = cli.main(["select", model, "--out", plan, *extra])
    return rc, model, plan


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_stdout_matches_flint4(capsys):
    assert cli.main(["tables", "--type", "flint", "--bits", "4"]) == 0
    out = capsys.readouterr().out
    values = sorted(
        float(line.split()[-1])
        for line in out.splitlines()
        if line.split() and set(line.split()[0]) <= {"0", "1"}
    )
    assert values == TABLE_UNSIGNED4


def test_tables_csv_includes_base_exponent(tmp_path):
    path = str(tmp_path / "t.csv")
    assert cli.main(["tables", "--type", "flint", "--bits", "4", "--csv", path]) == 0
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 16
    by_code = {r["code"]: r for r in rows}
    assert by_code["1110"]["value"] == "12.0"
    assert (by_code["1001"]["base"], by_code["1001"]["exponent"]) == ("2", "4")
    for r in rows:  # base << exponent reproduces every value
        assert float(r["base"]) * 2.0 ** float(r["exponent"]) == float(r["value"])


def test_tables_signed_pot_sign_bit_over_zero_is_plus_zero(capsys):
    assert cli.main(["tables", "--type", "pot", "--bits", "4", "--signed"]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:]}
    assert len(rows) == 16
    assert rows["1000"] == ["0", "0", "0"]  # base, exponent, value: not -0
    assert rows["1011"] == ["-1", "2", "-4"]


def test_tables_float_columns_give_the_value(tmp_path):
    # The exponent column is the value's power of two for every kind, float too.
    path = str(tmp_path / "t.csv")
    assert cli.main(["tables", "--type", "float", "--bits", "4", "--signed", "--csv", path]) == 0
    with open(path, newline="") as f:
        rows = {r["code"]: r for r in csv.DictReader(f)}
    assert len(rows) == 16
    assert [rows[c][k] for c in ("0001", "0111", "1000") for k in ("base", "exponent", "value")] \
        == ["1", "-1", "0.5", "3", "1", "6.0", "0", "-1", "0.0"]
    for r in rows.values():
        assert float(r["base"]) * 2.0 ** float(r["exponent"]) == float(r["value"])


def test_tables_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        cli.main(["tables", "--type", "bogus"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["select", "m.json", "--out", "p.json", "--promote-budget", "-1", "--threshold", "0"],
     "--promote-budget"),
    (["select", "m.json", "--out", "p.json", "--threshold", "nan"], "--threshold"),
    (["select", "m.json", "--out", "p.json", "--threshold", "-0.5"], "--threshold"),
    (["tables", "--type", "float", "--float-split", "2"], "--float-split"),
    (["tables", "--type", "float", "--float-split", "a,b"], "--float-split"),
    (["tables", "--type", "float", "--float-split", "1,2,3"], "--float-split"),
    (["quantize", "t.bin", "--type", "float", "--float-split", "2", "--out", "q"], "--float-split"),
    # one kind outside qtypes.KINDS spoils the list
    (["select", "m.json", "--out", "p.json", "--candidates", "float,posit"], "--candidates"),
    (["select", "m.json", "--out", "p.json", "--candidates", "foo"], "--candidates"),
    (["select", "m.json", "--out", "p.json", "--candidates", "int,,pot"], "--candidates"),
    (["quantize", "t.bin", "--type", "int", "--scale", "0", "--out", "q"], "--scale"),
    (["quantize", "t.bin", "--type", "int", "--scale", "-0.5", "--out", "q"], "--scale"),
    (["quantize", "t.bin", "--type", "int", "--scale", "inf", "--out", "q"], "--scale"),
    (["quantize", "t.bin", "--type", "int", "--scale", "nan", "--out", "q"], "--scale"),
    (["tables", "--type", "int", "--bits", "2"], "--bits"),
    (["tables", "--type", "flint", "--bits", "9"], "--bits"),
    (["quantize", "t.bin", "--type", "pot", "--bits", "16", "--out", "q"], "--bits"),
])
def test_bad_flag_value_is_a_usage_error_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


def test_float_split_on_an_int_type_exits_4(capsys):
    assert cli.main(["tables", "--type", "int", "--float-split", "2,1"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: int takes no float split")


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

def test_quantize_roundtrip(tmp_path):
    t = np.random.default_rng(1).normal(size=(4, 8))
    src = str(tmp_path / "t.bin")
    out = str(tmp_path / "q.bin")
    tensor_io.save_tensor(src, t)
    rc = cli.main(["quantize", src, "--type", "flint", "--bits", "4",
                   "--signed", "--scale", "0.25", "--out", out])
    assert rc == 0
    q = tensor_io.load_qtensor(out)
    assert q.scheme.ntype == NumericType("flint", 4, True)
    assert dequantize(q).shape == (4, 8)


def test_quantize_searches_scale_by_default(tmp_path):
    t = np.random.default_rng(2).normal(size=64)
    src = str(tmp_path / "t.bin")
    out = str(tmp_path / "q.bin")
    tensor_io.save_tensor(src, t)
    assert cli.main(["quantize", src, "--type", "int", "--signed", "--out", out]) == 0
    q = tensor_io.load_qtensor(out)
    assert 0 < q.scheme.scales[0] <= np.abs(t).max() / 7


def test_quantize_missing_input_exits_3(tmp_path):
    rc = cli.main(["quantize", str(tmp_path / "nope.bin"),
                   "--type", "int", "--out", str(tmp_path / "q.bin")])
    assert rc == cli.EXIT_INPUT


def test_quantize_corrupt_input_exits_3(tmp_path):
    src = tmp_path / "bad.bin"
    src.write_bytes(b"not a header\n123")
    rc = cli.main(["quantize", str(src), "--type", "int",
                   "--out", str(tmp_path / "q.bin")])
    assert rc == cli.EXIT_INPUT


def test_quantize_negative_into_unsigned_exits_4(tmp_path):
    src = str(tmp_path / "t.bin")
    tensor_io.save_tensor(src, np.array([-1.0, 1.0]))
    rc = cli.main(["quantize", src, "--type", "flint", "--scale", "1.0",
                   "--out", str(tmp_path / "q.bin")])
    assert rc == cli.EXIT_VALIDATION


def test_quantize_negative_axis_is_stored_non_negative(tmp_path):
    src, out = str(tmp_path / "w.tensor"), str(tmp_path / "q.qtensor")
    tensor_io.save_tensor(src, np.random.default_rng(3).normal(size=(4, 6)))
    assert cli.main(["quantize", src, "--type", "int", "--bits", "4", "--signed",
                     "--axis", "-1", "--out", out]) == 0
    q = tensor_io.load_qtensor(out)
    assert q.scheme.axis == 1 and q.scheme.scales.size == 6


@pytest.mark.parametrize("axis", ["2", "5", "-3"])
@pytest.mark.parametrize("scale", [[], ["--scale", "0.1"]], ids=["searched", "fixed"])
def test_quantize_axis_out_of_range_exits_4(tmp_path, capsys, axis, scale):
    # A fixed scale is per-tensor, so --scale with --axis is a usage error
    # (exit 2) whatever the axis; a searched scale's bad axis exits 4.
    src = str(tmp_path / "w.tensor")
    tensor_io.save_tensor(src, np.ones((4, 6)))
    argv = ["quantize", src, "--type", "int", "--signed", "--axis", axis, *scale,
            "--out", str(tmp_path / "q.qtensor")]
    if scale:
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        return
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: axis {axis} is out of range for a 2-D tensor"]


@pytest.mark.parametrize("axis", ["0", "1", "-1"])
def test_quantize_fixed_scale_with_a_valid_axis_is_a_usage_error(tmp_path, capsys, axis):
    src, out = str(tmp_path / "w.tensor"), tmp_path / "q.qtensor"
    tensor_io.save_tensor(src, np.ones((4, 6)))
    with pytest.raises(SystemExit) as e:
        cli.main(["quantize", src, "--type", "int", "--signed", "--scale", "0.1",
                  "--axis", axis, "--out", str(out)])
    assert e.value.code == 2
    assert "argument --axis: not allowed with argument --scale" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def test_select_writes_plan_with_manifest(tmp_path):
    rc, model, plan_path = run_select(tmp_path)
    assert rc == 0
    plan = tensor_io.load_plan(plan_path)
    assert {l["layerId"] for l in plan["layers"]} == {"fc0", "fc1"}
    for l in plan["layers"]:
        assert l["width"] == 4
        assert set(l["weightType"]["perCandidateMse"]) == {"int4", "pot4", "flint4"}
    m = plan["manifest"]
    assert m["command"] == "select" and m["version"]
    # The model, and the weight and calibration tensors of both layers.
    assert set(m["inputs"]) == {"model.json", "w0.bin", "w1.bin", "a0.bin", "a1.bin"}


def test_manifest_keys_inputs_by_path_from_the_model(tmp_path):
    # Two layers read files of the same names from different directories:
    # each file keeps its own digest.
    rng = np.random.default_rng(4)
    layers = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        tensor_io.save_tensor(str(tmp_path / d / "w.bin"), rng.normal(size=(4, 8)))
        tensor_io.save_tensor(str(tmp_path / d / "x.bin"), np.abs(rng.normal(size=32)))
        layers.append({"layerId": d, "kind": "gemm", "M": 4, "N": 4, "K": 8,
                       "weightTensor": f"{d}/w.bin", "calibrationActivations": [f"{d}/x.bin"]})
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"layers": layers}))
    plan = str(tmp_path / "plan.json")
    assert cli.main(["select", str(model), "--out", plan]) == 0
    inputs = tensor_io.load_plan(plan)["manifest"]["inputs"]
    want = {"model.json": model, **{f"{d}/{f}": tmp_path / d / f
                                    for d in ("a", "b") for f in ("w.bin", "x.bin")}}
    assert inputs == {k: cli._digest(str(p)) for k, p in want.items()}


def test_select_candidates_subset(tmp_path):
    rc, _, plan_path = run_select(tmp_path, "--candidates", " flint, int")
    assert rc == 0
    for l in tensor_io.load_plan(plan_path)["layers"]:
        assert set(l["weightType"]["perCandidateMse"]) == {"flint4", "int4"}


@pytest.mark.parametrize("kinds, names", [("int,pot,flint,float", {"int4", "pot4", "flint4",
                                                                  "float4e2m1"}),
                                          ("float", {"float4e2m1"})])
def test_select_float_candidates_plan_simulates(tmp_path, kinds, names):
    rc, model, plan_path = run_select(tmp_path, "--candidates", kinds, "--threshold", "0",
                                      "--promote-budget", "1")
    assert rc == 0
    plan = tensor_io.load_plan(plan_path)
    assert len(plan["promotionOrder"]) == 1
    for l in plan["layers"]:
        four_bit = l["fourBitCandidates"]["weight"] if l["width"] == 8 else \
            l["weightType"]["perCandidateMse"]
        assert set(four_bit) == names
    assert cli.main(["simulate", model, plan_path, "--out", str(tmp_path / "r")]) == 0


def test_select_promote_budget(tmp_path):
    rc, _, plan_path = run_select(
        tmp_path, "--threshold", "0", "--promote-budget", "1"
    )
    assert rc == 0
    plan = tensor_io.load_plan(plan_path)
    promoted = [l for l in plan["layers"] if l["width"] == 8]
    assert len(promoted) == 1 == len(plan["promotionOrder"])
    assert promoted[0]["weightType"]["ntype"]["width"] == 8
    assert "fourBitCandidates" in promoted[0]


def test_select_mse_csv(tmp_path):
    model = make_model(tmp_path)
    plan = str(tmp_path / "plan.json")
    csv_path = str(tmp_path / "mse.csv")
    assert cli.main(["select", model, "--out", plan, "--mse-csv", csv_path]) == 0
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    # 2 layers x 2 tensors x 3 candidates
    assert len(rows) == 12
    for r in rows:
        if r["chosen"] == "1":
            assert float(r["mse_normalized_to_chosen"]) == 1.0
    chosen = [r for r in rows if r["chosen"] == "1"]
    assert len(chosen) == 4


def test_mse_csv_without_flint_normalizes_every_row(tmp_path):
    # The chosen type is a candidate of every tensor, whatever the list.
    csv_path = str(tmp_path / "mse.csv")
    rc, _, _ = run_select(tmp_path, "--candidates", "float,int", "--mse-csv", csv_path)
    assert rc == 0
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    chosen = {(r["layer"], r["tensor"]): float(r["mse"]) for r in rows if r["chosen"] == "1"}
    for r in rows:
        want = float(r["mse"]) / chosen[r["layer"], r["tensor"]]
        assert float(r["mse_normalized_to_chosen"]) == want


def test_manifest_records_the_argv_main_parsed(tmp_path, monkeypatch):
    """An in-process call records its own argv, not the host's; ``main()``
    with no argv records the process's."""
    monkeypatch.setattr("sys.argv", ["flintq", "extra", "args", "here"])
    model = make_model(tmp_path)
    plan = str(tmp_path / "plan.json")
    select = ["select", model, "--out", plan]
    assert cli.main(select) == 0
    assert tensor_io.load_plan(plan)["manifest"]["argv"] == select
    out = str(tmp_path / "r")
    simulate = ["simulate", model, plan, "--out", out]
    assert cli.main(simulate) == 0
    with open(out + ".json") as f:
        assert json.load(f)["manifest"]["argv"] == simulate
    monkeypatch.setattr("sys.argv", ["flintq", *simulate, "--dataflow", "ws"])
    assert cli.main() == 0
    with open(out + ".json") as f:
        assert json.load(f)["manifest"]["argv"] == [*simulate, "--dataflow", "ws"]


def test_calls_in_one_process_share_no_parsed_state(tmp_path, capsys):
    """The parser is built once; each call still parses its own argv."""
    assert cli.build_parser() is cli.build_parser()
    rc, model, plan = run_select(tmp_path, "--candidates", "flint")
    assert rc == 0
    assert cli.main(["select", model, "--out", plan]) == 0
    for l in tensor_io.load_plan(plan)["layers"]:
        assert set(l["weightType"]["perCandidateMse"]) == {"int4", "pot4", "flint4"}
    with pytest.raises(SystemExit) as exc:
        cli.main(["select", model, "--out", plan, "--threshold", "-1"])
    assert exc.value.code == 2
    assert cli.main(["simulate", model, plan, "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("role", ["weight", "activation"])
def test_select_empty_tensor_exits_4_naming_the_layer(tmp_path, capsys, role):
    model = make_model(tmp_path)
    tensor_io.save_tensor(str(tmp_path / ("w1.bin" if role == "weight" else "a1.bin")),
                          np.zeros((0, 16) if role == "weight" else 0))
    capsys.readouterr()
    assert cli.main(["select", model, "--out", str(tmp_path / "plan.json")]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: layer fc1: the {role} tensor holds no values\n"


def test_select_missing_model_exits_3(tmp_path):
    rc = cli.main(["select", str(tmp_path / "no.json"), "--out", str(tmp_path / "p")])
    assert rc == cli.EXIT_INPUT


def _edit_layers(path, edit):
    with open(path) as f:
        doc = json.load(f)
    edit(doc["layers"])
    with open(path, "w") as f:
        json.dump(doc, f)


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls[1].update(layerId="fc0"), "model layer fc0: duplicate layer id"),
    (lambda ls: ls[0].update(weightTensor="nope.bin"),
     "model layer fc0: referenced file not found: {dir}/nope.bin"),
    (lambda ls: ls[1].pop("weightTensor"), "model layer fc1: no weight tensor"),
    (lambda ls: ls[1].pop("calibrationActivations"),
     "model layer fc1: activation selection needs calibration tensors"),
], ids=["duplicate", "not-found", "no-weight", "no-calibration"])
def test_model_layer_error_names_the_model_and_layer(tmp_path, capsys, edit, message):
    model = make_model(tmp_path)
    _edit_layers(model, edit)
    assert cli.main(["select", model, "--out", str(tmp_path / "p.json")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {model}: {message.format(dir=tmp_path)}\n"


def test_model_as_a_bare_list_exits_3(tmp_path, capsys):
    model = make_model(tmp_path)
    with open(model) as f:
        layers = json.load(f)["layers"]
    with open(model, "w") as f:
        json.dump(layers, f)
    assert cli.main(["select", model, "--out", str(tmp_path / "p.json")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: expected a JSON object, got [") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _plan_then_simulate(tmp_path, dataflow=None, config=None):
    rc, model, plan = run_select(tmp_path)
    assert rc == 0
    out = str(tmp_path / f"rep_{dataflow or 'default'}")
    args = ["simulate", model, plan, "--out", out]
    if dataflow:
        args += ["--dataflow", dataflow]
    if config:
        args += ["--config", config]
    return cli.main(args), out


def test_simulate_writes_reports(tmp_path):
    rc, out = _plan_then_simulate(tmp_path, "os")
    assert rc == 0
    with open(out + ".json") as f:
        doc = json.load(f)
    assert doc["dataflow"] == "os"
    assert doc["totals"]["cycles"] > 0
    assert doc["manifest"]["command"] == "simulate"
    with open(out + ".csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["layer_id"] for r in rows] == ["fc0", "fc1", "total"]


def test_simulate_ws_dataflow(tmp_path):
    rc, out = _plan_then_simulate(tmp_path, "ws")
    assert rc == 0
    with open(out + ".json") as f:
        assert json.load(f)["dataflow"] == "ws"


def test_simulate_custom_config(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"n": 32, "dataflow": "ws"}, f)
    rc, out = _plan_then_simulate(tmp_path, config=cfg_path)
    assert rc == 0
    with open(out + ".json") as f:
        assert json.load(f)["dataflow"] == "ws"


def test_simulate_dataflow_flag_overrides_only_the_config_dataflow(tmp_path, monkeypatch):
    cfg = sim.ArrayConfig(n=32, dataflow="ws", energy=sim.EnergyTable(mac4=2.0))
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg.to_json(), f)
    seen = []
    real = sim.simulate_model
    monkeypatch.setattr(sim, "simulate_model", lambda c, w: seen.append(c) or real(c, w))
    rc, _ = _plan_then_simulate(tmp_path, "os", config=cfg_path)
    assert rc == 0
    assert seen == [sim.ArrayConfig(n=32, dataflow="os", energy=sim.EnergyTable(mac4=2.0))]


def _fractions_changed(doc):
    """``doc`` with every number that has a fraction or an exponent changed."""
    if isinstance(doc, dict):
        return {k: _fractions_changed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_fractions_changed(v) for v in doc]
    return doc * 3 + 0.25 if type(doc) is float else doc


def test_simulate_reads_no_fractional_plan_number(tmp_path, capsys):
    """Scales, MSEs and ``aggregateMse`` leave the report as it was."""
    rc, model, plan = run_select(tmp_path)
    assert rc == 0
    changed = str(tmp_path / "changed.json")
    with open(plan) as f:
        doc = json.load(f)
    new = _fractions_changed(doc)
    assert new["layers"][0]["weightType"]["scales"] != doc["layers"][0]["weightType"]["scales"]
    assert new["aggregateMse"] != doc["aggregateMse"]
    tensor_io.save_plan(changed, new)
    outputs = []
    for p in (plan, changed):
        capsys.readouterr()
        out = str(tmp_path / "r")
        assert cli.main(["simulate", model, p, "--out", out]) == 0
        with open(out + ".json") as f:
            report = json.load(f)
        assert report.pop("manifest")["argv"][2] == p
        with open(out + ".csv", "rb") as f:
            outputs.append((report, f.read(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_simulate_plan_mismatch_exits_5(tmp_path):
    rc, model, plan = run_select(tmp_path)
    # Rewrite the plan to drop one layer.
    doc = tensor_io.load_plan(plan)
    doc["layers"] = doc["layers"][:1]
    tensor_io.save_plan(plan, doc)
    rc = cli.main(["simulate", model, plan, "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_PLAN_MISMATCH


def test_plan_mismatch_error_names_the_plan(tmp_path, capsys):
    rc, model, plan = run_select(tmp_path)
    _edit_layers(plan, lambda ls: ls.pop())
    capsys.readouterr()
    assert cli.main(["simulate", model, plan, "--out", str(tmp_path / "r")]) == cli.EXIT_PLAN_MISMATCH
    assert capsys.readouterr().err == f"error: {plan}: plan does not cover layers: fc1\n"


def test_energy_total_sums_its_components_left_to_right(tmp_path):
    # The built-in sum of these components reads 1772.6000000000001 on
    # Python 3.12 and later, and 1772.6 summed left to right.
    model, plan, cfg = (str(tmp_path / name) for name in ("m.json", "p.json", "c.json"))
    int4 = {"ntype": {"kind": "int", "width": 4, "signed": True}}
    with open(model, "w") as f:
        json.dump({"layers": [{"layerId": "g", "M": 7, "N": 9, "K": 11}]}, f)
    tensor_io.save_plan(plan, {"layers": [{"layerId": "g", "width": 4, "weightType": int4,
                                           "activationType": int4}]})
    with open(cfg, "w") as f:
        json.dump({"energy": {"dram_per_bit": 0.1, "sram_per_bit": 0.1,
                              "static_per_cycle": 0.7, "decode": 0.1}}, f)
    out = str(tmp_path / "r")
    assert cli.main(["simulate", model, plan, "--config", cfg, "--out", out]) == 0
    with open(out + ".json") as f:
        report = json.load(f)
    for row in (report["layers"][0], report["totals"]):
        parts = [row[f"energy_{k}"] for k in sim.ENERGY_KEYS]
        assert parts == [97.3, 171.20000000000002, 664.0, 840.1]
        assert row["energy_total"] == ((parts[0] + parts[1]) + parts[2]) + parts[3] == 1772.6


def test_simulate_bad_config_exits_4(tmp_path):
    rc, model, plan = run_select(tmp_path)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"n": 63}, f)
    rc = cli.main(["simulate", model, plan, "--config", cfg_path,
                   "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_VALIDATION


def _drop_key(path, key):
    """Remove ``key`` from the first layer of a model or plan document."""
    with open(path) as f:
        doc = json.load(f)
    del doc["layers"][0][key]
    with open(path, "w") as f:
        json.dump(doc, f)


@pytest.mark.parametrize("missing", [
    "tensor shape", "model M", "plan width", "plan weightType", "plan activationType",
    "model layers", "plan layers",
])
def test_missing_required_key_exits_3(tmp_path, capsys, missing):
    if missing == "tensor shape":
        src = tmp_path / "t.bin"
        header = {"name": "", "dtype": "f32", "byteOrder": "little"}
        src.write_bytes(json.dumps(header).encode() + b"\n" + np.zeros(4, "<f4").tobytes())
        argv = ["quantize", str(src), "--type", "int", "--out", str(tmp_path / "q.bin")]
    else:
        rc, model, plan = run_select(tmp_path)
        assert rc == 0
        doc, key = missing.split()
        path = model if doc == "model" else plan
        if key == "layers":  # present, but not a list of layers
            with open(path, "w") as f:
                json.dump({"layers": 5}, f)
        else:
            _drop_key(path, key)
        argv = ["simulate", model, plan, "--out", str(tmp_path / "r")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing.split()[1] in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == len(verify.ALL_CHECKS)
    assert all(re.fullmatch(r"PASS  [a-z0-9-]+  \(\d+\.\d{3} s\)", l) for l in lines), lines


def test_verify_exhaustive_checks_cover_every_pair(monkeypatch):
    real_mul8, real_mac = pe.mul8_via_four, pe.mac_step
    mul8_lanes, mac_lanes = [], []

    def mul8(a, b, signed=True):
        a_lanes, b_lanes = (x.ravel().tolist() for x in np.broadcast_arrays(a, b))
        mul8_lanes.extend((signed, x, y) for x, y in zip(a_lanes, b_lanes))
        return real_mul8(a, b, signed)

    def mac(state, a, b):
        lanes = np.broadcast_arrays(a.base << a.exponent, b.base << b.exponent)
        mac_lanes.extend(zip(*(x.ravel().tolist() for x in lanes)))
        return real_mac(state, a, b)

    monkeypatch.setattr(pe, "mul8_via_four", mul8)
    assert verify.check_mul8_exhaustive().ok
    monkeypatch.setattr(pe, "mac_step", mac)
    assert verify.check_mac_exhaustive().ok
    assert sorted(mul8_lanes) == sorted(
        [(False, a, b) for a in range(256) for b in range(256)]
        + [(True, a, b) for a in range(-128, 128) for b in range(-128, 128)]
    )
    want = []
    for signed in (False, True):
        # A lane holds each operand's value times 2**exponent_offset.
        values = [np.ldexp(t.code_values(), t.exponent_offset).tolist()
                  for t in (NumericType(k, 4, signed) for k in KINDS)]
        want += [(x, y) for va in values for vb in values for x in va for y in vb]
    assert sorted(mac_lanes) == sorted(want)


def _verify_fails_with(capsys, check, name, pair):
    """``check`` fails naming ``pair``, and ``flintq verify`` reports it and exits 6."""
    result = check()
    assert not result.ok and result.name == name
    assert pair in result.detail
    capsys.readouterr()
    assert cli.main(["verify"]) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(verify.ALL_CHECKS)
    assert [l.split()[1] for l in lines if l.startswith("FAIL")] == [name]
    assert any(l.startswith(f"FAIL  {name}  ({pair}") for l in lines), lines


@pytest.mark.parametrize("bad_signed, bad_a, bad_b", [
    (True, -128, -128), (True, 127, 127), (True, -1, 0), (False, 0, 0), (False, 255, 255),
])
def test_verify_mul8_fail_names_the_pair(monkeypatch, capsys, bad_signed, bad_a, bad_b):
    real = pe.mul8_via_four

    def off_by_one(a, b, signed=True):
        # Wrong for one pair only, in scalar and array calls alike.
        return real(a, b, signed) + ((signed == bad_signed) & (a == bad_a) & (b == bad_b))

    monkeypatch.setattr(pe, "mul8_via_four", off_by_one)
    pair = f"{'signed' if bad_signed else 'unsigned'} {bad_a}*{bad_b}"
    _verify_fails_with(capsys, verify.check_mul8_exhaustive, "mul8-exhaustive", pair)


def test_verify_mac_fail_names_the_pair(monkeypatch, capsys):
    real = pe.mac_step

    def off_by_one(state, a, b):
        # Wrong only where both operands are -64 = (-1) << 6: the last signed
        # pot4 code, and no other 4-bit type decodes to (-1, 6).
        s = real(state, a, b)
        hit = (a.base == -1) & (a.exponent == 6) & (b.base == -1) & (b.exponent == 6)
        return pe.MacState(s.accumulator + hit, s.acc_width, s.product_width, s.overflowed)

    monkeypatch.setattr(pe, "mac_step", off_by_one)
    _verify_fails_with(capsys, verify.check_mac_exhaustive, "mac-exhaustive",
                       "potxpot signed=True codes (15,15)")


def test_verify_roundtrip_fail_names_a_corrupt_lookup(monkeypatch, capsys):
    # One bucket of float4e2m1's cell lookup, the one that holds 2.0, points
    # at the next cell up: quantize, and only quantize, now moves 2.0 to 3.0.
    bad = NumericType("float", 4, True)
    real = qtypes._bucket_cells

    def corrupt(t):
        cells, shift, lo, hi = real(t)
        if t == bad:
            cells = cells.copy()
            cells[(np.float64(2.0).view(np.int64) >> shift) - lo] += 1
        return cells, shift, lo, hi

    monkeypatch.setattr(qtypes, "_bucket_cells", corrupt)
    assert dequantize(qtypes.quantize(np.array([2.0]), qtypes.QuantScheme(bad, 1.0)))[0] == 3.0
    _verify_fails_with(capsys, verify.check_roundtrip, "encode-roundtrip", bad.name)
