"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` generates the inputs and starts this script; it should not be
run by hand except to debug::

    python3 bench/workload.py --workload sim-datapath --data DIR --seconds 5 --trace 0

It imports flintq from the checkout's ``src``, warms every layer up, then
runs the workload's operations in a closed loop (one client, the next
operation starts when the previous one returns) for ``--seconds``.  Every
operation goes through ``flintq.cli.main`` in-process, except the read-back
of quantized tensors, which uses the library as a user would.  Each
operation's outputs are checked; a failed check counts the operation as
failed.  The last line of stdout is one JSON object for ``run.py``.

With ``--probe`` it only imports flintq and runs the warm-up: ``run.py``
times that in separate interpreters to get the set-up time.

With ``--trace 1`` it first runs untraced for a quarter of ``--seconds``
(at least one iteration), then wraps the public functions of every flintq
module (see ``install_tracer``), runs the loop traced and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import flintq  # noqa: E402
from flintq import cli, flint, pe, qtypes, selector, sim, tensor_io, verify  # noqa: E402
from flintq.qtypes import NumericType, QuantScheme  # noqa: E402

from tracer import Tracer, self_times  # noqa: E402

# simulate passes over every (graph, plan, array, dataflow) combination per
# sim-datapath iteration, so that simulate samples outnumber verify samples.
SIM_PASSES = 2
FLINT_SAMPLE = 256
QTYPE_TAGS = ("int4", "pot4", "flint4", "float4", "int8", "flint8")


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations, times them and counts failed checks."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self.ops: list[dict] = []

    def _call(self, fn, *args):
        run_id = len(self.ops)
        if self.tracer:
            self.tracer.run_id = run_id
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0

    def cli(self, kind: str, argv: list[str], env: dict | None = None):
        """One ``flintq`` command in-process; returns (exit code, stdout)."""

        def main():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = self.tracer.span("cli.main", cli.main, argv) if self.tracer else cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, buf.getvalue()

        saved = {k: os.environ.get(k) for k in (env or {})}
        os.environ.update(env or {})
        try:
            (rc, out), dt = self._call(main)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        errors = [] if rc == 0 else [f"exit code {rc}"]
        return self.record(kind, dt, errors), rc, out

    def library(self, kind: str, fn, *args):
        result, dt = self._call(fn, *args)
        return self.record(kind, dt, []), result

    def record(self, kind: str, seconds: float, errors: list[str]) -> dict:
        op = {"kind": kind, "seconds": seconds, "errors": errors, "run": len(self.ops)}
        self.ops.append(op)
        return op

    def check(self, op: dict, errors: list[str]) -> None:
        """Attach check failures to an operation (checks run untraced)."""
        op["errors"].extend(errors)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def failed(self) -> int:
        return sum(1 for op in self.ops if op["errors"])


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)


def _numeric_default(key: str) -> bool:
    """True for LayerReport fields that totals sum (numbers, not flags)."""
    value = getattr(sim.LayerReport("x"), key, None)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_report(doc: dict, expected: sim.SimReport) -> list[str]:
    """Totals equal the sum of the layer rows; rows equal ``simulate_model``."""
    errors = []
    rows, totals = doc["layers"], doc["totals"]
    if [r["layer_id"] for r in rows] != [r.layer_id for r in expected.layers]:
        return ["report layers differ from the model graph"]
    for row, want in zip(rows, expected.layers):
        for key, got in row.items():
            if key == "energy_total":
                ref = want.total_energy()
            elif key.startswith("energy_") and not hasattr(want, key):
                ref = want.energy.get(key[len("energy_"):])
            else:
                ref = getattr(want, key, None)
            if key != "layer_id" and ref is not None and not _close(got, ref):
                errors.append(f"{row['layer_id']}.{key}: report {got}, simulate_model {ref}")
    for key, got in totals.items():
        if key.startswith("energy_") or _numeric_default(key):
            if not _close(got, sum(r[key] for r in rows)):
                errors.append(f"totals.{key} {got} != sum of layer rows")
    return errors[:5]


def expected_report(graph, plan_doc: dict, cfg_path: str | None, dataflow: str) -> sim.SimReport:
    """``simulate_model`` on the same layers the CLI builds from graph + plan."""
    cfg = sim.ArrayConfig()
    if cfg_path:
        cfg = sim.ArrayConfig.from_json(read_json(cfg_path))
    cfg = sim.ArrayConfig.from_json({**cfg.to_json(), "dataflow": dataflow})
    fields = {f.name for f in dataclasses.fields(sim.GemmLayer)}
    by_id = {l["layerId"]: l for l in plan_doc["layers"]}
    layers = []
    for gl in graph:
        pl = by_id[gl.layer_id]
        extra = {}
        for field, key in (("weight_type", "weightType"), ("activation_type", "activationType")):
            if field in fields:
                extra[field] = selector.ntype_from_json(pl[key]["ntype"]).name
        layers.append(sim.GemmLayer(gl.layer_id, gl.m, gl.n, gl.k, width=int(pl["width"]), **extra))
    return sim.simulate_model(cfg, sim.GemmWorkload(layers))


def modelled_stats(report: sim.SimReport) -> dict:
    """Exact model outputs of one report; a host-speed change leaves them alone."""
    t = report.totals()
    macs = t.mac4_ops + t.mac8_ops
    return {
        "sim.cycles": t.cycles,
        "sim.compute_cycles": t.compute_cycles,
        "sim.overhead_cycles": t.overhead_cycles,
        "sim.dram_bits": t.dram_bits,
        "sim.sram_bits": t.sram_bits,
        "sim.bandwidth_bound_layers": sum(1 for r in report.layers if r.bandwidth_bound),
        "sim.mac8_share": t.mac8_ops / macs if macs else 0.0,
        "sim.energy_total": t.total_energy(),
    }


def canonical_plan(doc: dict) -> str:
    """The documented plan fields, for exact comparison between runs."""
    layers = [
        {k: l[k] for k in ("layerId", "width")}
        | {role: {k: l[role][k] for k in ("ntype", "scales", "axis")}
           for role in ("weightType", "activationType")}
        for l in doc["layers"]
    ]
    return json.dumps({"layers": layers, "aggregateMse": doc["aggregateMse"],
                       "promotionOrder": doc.get("promotionOrder")}, sort_keys=True)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    primary = ""  # op kind whose median is op_s

    def __init__(self, data: str, manifest: dict) -> None:
        self.data = data
        self.manifest = manifest
        self.path = lambda name: os.path.join(data, name)
        self.reference: sim.SimReport | None = None  # report behind plan_cycles
        self.plan_cycles: int | None = None

    def iteration(self, run: Runner) -> None:
        raise NotImplementedError

    def finish(self, run: Runner) -> None:
        """Operations made once per run, after the loop."""

    def named(self, loop_ops: list[dict]) -> dict:
        """The workload's own figures, printed by name above the result."""
        raise NotImplementedError

    def plan_metrics(self, layers_8bit_selected: float) -> dict:
        """Per-layer selector metrics read from the plan; 0 without selection."""
        return {"selector.promotions": 0, "selector.plan_nmse": 0.0,
                "selector.boundary_hit_ratio": 0.0, "selector.int8_used_ratio": 0.0}


class PlanWorkload(Workload):
    """select (threshold mode) then simulate; plan-large-tensor adds
    quantize --scale for every kind and width plus the read-back."""

    primary = "select"

    def __init__(self, data: str, manifest: dict) -> None:
        super().__init__(data, manifest)
        self.model = self.path(manifest["model"])
        self.graph = tensor_io.load_model_graph(self.model)
        self.plan_path = self.path("plan.json")
        self.ref_plan: str | None = None
        self.plan_doc: dict | None = None
        self.quant = []
        if "quantize_input" in manifest:
            src = self.path(manifest["quantize_input"])
            t = tensor_io.load_tensor(src)
            self.quant = [self._quant_case(src, t, k, b) for k, b in manifest["quantize_types"]]

    def _quant_case(self, src: str, t: np.ndarray, kind: str, bits: int) -> dict:
        ntype = NumericType(kind, bits, signed=True)
        scale = 0.9 * float(np.max(np.abs(t))) / ntype.max_value()
        want = qtypes.quantize(t, QuantScheme(ntype, np.array([scale])))
        case = {"kind": kind, "bits": bits, "src": src, "scale": scale, "elements": t.size,
                "out": self.path(f"q.{kind}{bits}.qtensor"), "codes": want.codes,
                "values": qtypes.dequantize(want), "name": ntype.name}
        if kind == "flint":
            idx = np.random.default_rng(self.manifest["seed"]).choice(t.size, FLINT_SAMPLE)
            case["sample"] = idx
            case["sample_codes"] = [flint.encode(float(t.flat[i]), bits, scale, signed=True).bits
                                    for i in idx]
        return case

    def select(self, run: Runner, kind: str, env: dict | None = None) -> bool:
        argv = ["select", self.model, "--out", self.plan_path, "--mse-csv",
                self.path("mse.csv"), "--threshold", repr(self.manifest["threshold"])]
        op, rc, _ = run.cli(kind, argv, env)
        if rc != 0:
            return False
        with run.untraced():
            doc = read_json(self.plan_path)
            errors = []
            ids = [l["layerId"] for l in doc["layers"]]
            if sorted(ids) != sorted(g.layer_id for g in self.graph):
                errors.append(f"plan covers {ids}, model has {[g.layer_id for g in self.graph]}")
            if any(l["width"] not in (4, 8) for l in doc["layers"]):
                errors.append("plan width outside {4, 8}")
            canon = canonical_plan(doc)
            if self.ref_plan is None:
                self.ref_plan, self.plan_doc = canon, doc
            elif canon != self.ref_plan:
                errors.append(f"{kind}: plan differs from the first plan of this run")
            run.check(op, errors)
        return not errors

    def iteration(self, run: Runner) -> None:
        if not self.select(run, "select"):
            return
        prefix = self.path("report")
        op, rc, _ = run.cli("simulate", ["simulate", self.model, self.plan_path,
                                         "--dataflow", "os", "--out", prefix])
        if rc == 0:
            with run.untraced():
                doc = read_json(prefix + ".json")
                if self.reference is None:
                    self.reference = expected_report(self.graph, self.plan_doc, None, "os")
                run.check(op, check_report(doc, self.reference))
                self.plan_cycles = doc["totals"]["cycles"]
        for case in self.quant:
            self.quantize(run, case)

    def quantize(self, run: Runner, case: dict) -> None:
        argv = ["quantize", case["src"], "--type", case["kind"], "--bits", str(case["bits"]),
                "--signed", "--scale", repr(case["scale"]), "--out", case["out"]]
        op, rc, _ = run.cli("quantize", argv)
        op["elements"] = case["elements"]
        if rc != 0:
            return

        def read_back():
            q = tensor_io.load_qtensor(case["out"])
            return q, qtypes.dequantize(q)

        op, (q, values) = run.library("readback", read_back)
        with run.untraced():
            errors = []
            if not np.array_equal(q.codes, case["codes"]):
                errors.append(f"{case['name']}: read-back codes differ from quantize()")
            if not np.array_equal(values.ravel(), case["values"].ravel()):
                errors.append(f"{case['name']}: dequantized read-back differs from fake_quantize")
            if "sample" in case and q.codes[case["sample"]].tolist() != case["sample_codes"]:
                errors.append(f"{case['name']}: codes differ from scalar flint.encode")
            run.check(op, errors)

    def finish(self, run: Runner) -> None:
        # README: the plan never depends on the worker count.
        self.select(run, "select-1worker", {"ANT_THREADS": "1"})

    def named(self, loop_ops: list[dict]) -> dict:
        out = {"select_s": median_of(loop_ops, "select"),
               "plan_nmse": self.plan_doc["aggregateMse"] if self.plan_doc else None,
               "plan_cycles": self.plan_cycles}
        if self.quant:
            out["quantize_melem_s"] = statistics.median(
                sum(op["elements"] for op in ops) / sum(op["seconds"] for op in ops) / 1e6
                for ops in per_iteration(loop_ops, "quantize"))
        return out

    def plan_metrics(self, layers_8bit_selected: float) -> dict:
        promotions = sum(1 for l in self.plan_doc["layers"] if l["width"] == 8)
        return {"selector.promotions": promotions,
                "selector.plan_nmse": self.plan_doc["aggregateMse"],
                "selector.boundary_hit_ratio": self.boundary_hit_ratio(),
                "selector.int8_used_ratio": (promotions / layers_8bit_selected
                                             if layers_8bit_selected else 0.0)}

    def boundary_hit_ratio(self) -> float:
        """Share of chosen scales whose clip equals max|v| of their slice."""
        hits = total = 0
        for g in self.graph:
            layer = next(l for l in self.plan_doc["layers"] if l["layerId"] == g.layer_id)
            weight = tensor_io.load_tensor(g.weight_path)
            acts = np.concatenate([tensor_io.load_tensor(p).ravel() for p in g.calibration_paths])
            for t, sel in ((weight, layer["weightType"]), (acts, layer["activationType"])):
                ntype = selector.ntype_from_json(sel["ntype"])
                if sel["axis"] is None:
                    max_abs = np.array([np.max(np.abs(t))])
                else:
                    max_abs = np.max(np.abs(np.moveaxis(t, sel["axis"], 0).reshape(t.shape[sel["axis"]], -1)), axis=1)
                clip = np.asarray(sel["scales"]) * ntype.max_value()
                live = max_abs > 0
                hits += int(np.count_nonzero(np.isclose(clip[live], max_abs[live], rtol=1e-9, atol=0)))
                total += int(np.count_nonzero(live))
        return hits / total if total else 0.0


class SimWorkload(Workload):
    """Many simulate calls over fixed graphs and plans, then tables and verify."""

    primary = "simulate"

    def __init__(self, data: str, manifest: dict) -> None:
        super().__init__(data, manifest)
        self.combos = []
        graphs, plans = {}, {}
        for graph, plan, cfg, dataflow in manifest["combos"]:
            if graph not in graphs:
                graphs[graph] = tensor_io.load_model_graph(self.path(graph))
            if plan not in plans:
                plans[plan] = tensor_io.load_plan(self.path(plan))
            want = expected_report(graphs[graph], plans[plan], self.path(cfg), dataflow)
            argv = ["simulate", self.path(graph), self.path(plan), "--config", self.path(cfg),
                    "--dataflow", dataflow, "--out", self.path("report")]
            self.combos.append((argv, want))
            if [graph, plan] == manifest["reference"] and cfg == "array64.json" and dataflow == "os":
                self.reference = want

    def iteration(self, run: Runner) -> None:
        for _ in range(SIM_PASSES):
            for argv, want in self.combos:
                op, rc, _ = run.cli("simulate", argv)
                if rc == 0:
                    with run.untraced():
                        doc = read_json(self.path("report.json"))
                        run.check(op, check_report(doc, want))
                        if want is self.reference:
                            self.plan_cycles = doc["totals"]["cycles"]
        for kind, bits in self.manifest["tables"]:
            op, rc, out = run.cli("tables", ["tables", "--type", kind, "--bits", str(bits), "--signed"])
            rows = [l for l in out.splitlines() if l.split() and len(l.split()[0]) == bits
                    and set(l.split()[0]) <= {"0", "1"}]
            if rc == 0 and len(rows) != 1 << bits:
                run.check(op, [f"tables {kind}{bits}: {len(rows)} rows, want {1 << bits}"])
        op, rc, out = run.cli("verify", ["verify"])
        lines = out.splitlines()
        if rc == 0 and (len(lines) != len(verify.ALL_CHECKS)
                        or not all(l.startswith("PASS") for l in lines)):
            run.check(op, [f"verify printed {lines}"])

    def named(self, loop_ops: list[dict]) -> dict:
        times = sorted(op["seconds"] for op in loop_ops if op["kind"] == "simulate")
        n = len(times)
        out = {"simulate_s": statistics.median(times), "verify_s": median_of(loop_ops, "verify"),
               "plan_cycles": self.plan_cycles, "simulate_samples": n}
        if n > 10:
            # Highest percentile with at least ten samples beyond it.
            out["simulate_tail_s"] = times[n - 11]
            out["simulate_tail_percentile"] = 100.0 * (n - 10) / n
        return out


WORKLOADS = {
    "plan-perchannel": PlanWorkload,
    "plan-large-tensor": PlanWorkload,
    "sim-datapath": SimWorkload,
}


def median_of(ops: list[dict], kind: str) -> float:
    return statistics.median(op["seconds"] for op in ops if op["kind"] == kind)


def per_iteration(ops: list[dict], kind: str | None = None) -> list[list[dict]]:
    groups: dict[int, list[dict]] = {}
    for op in ops:
        if kind is None or op["kind"] == kind:
            groups.setdefault(op["iteration"], []).append(op)
    return list(groups.values())


def warm_up(manifest: dict, data: str) -> None:
    """One cheap call into every layer, so lazy set-up is not timed later."""
    cli.build_parser()
    graph = manifest["model"] if "model" in manifest else manifest["reference"][0]
    tensor_io.load_model_graph(os.path.join(data, graph))
    if manifest["tensors"]:
        tensor_io.load_tensor(os.path.join(data, next(iter(manifest["tensors"]))))
    t = np.linspace(-1.0, 1.0, 64)
    selector.select_type(t, selector.make_candidates())
    qtypes.dequantize(qtypes.quantize(t, QuantScheme(NumericType("float", 4), np.array([0.1]))))
    flint.decode_int(flint.encode(3.0, 4))
    pe.mul8_via_four(3, -5)
    sim.simulate_model(sim.ArrayConfig(), sim.GemmWorkload([sim.GemmLayer("w", 8, 8, 8)]))
    verify.check_golden_tables()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

MODULES = [flintq, cli, tensor_io, selector, qtypes, flint, pe, sim, verify]
LOADS = ("tensor_io.load_tensor", "tensor_io.load_qtensor", "tensor_io.load_model_graph",
         "tensor_io.load_plan")
SAVES = ("tensor_io.save_tensor", "tensor_io.save_qtensor", "tensor_io.save_plan")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _type_tag(ntype: NumericType) -> str:
    return f"{ntype.kind}{ntype.width}"


def _sweep_evals(args, kwargs) -> int:
    """Slices x clip steps of one argmin_mse_scale call, from its inputs."""
    t = np.asarray(_arg(args, kwargs, 0, "t"))
    axis = _arg(args, kwargs, 2, "axis")
    steps = _arg(args, kwargs, 3, "steps", getattr(selector, "DEFAULT_SWEEP_STEPS", 100))
    min_ratio = _arg(args, kwargs, 4, "min_ratio", getattr(selector, "DEFAULT_MIN_CLIP_RATIO", 0.2))
    per_slice = steps - int(round(steps * min_ratio)) + 1
    if axis is None:
        return per_slice * int(np.any(t != 0))
    rows = np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1)
    return per_slice * int(np.count_nonzero(np.any(rows != 0, axis=1)))


def install_tracer(tr: Tracer) -> None:
    def patch(owner, attr, name=None, **kw):
        label = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tr.patch(MODULES, owner, attr, tr.wrap(label, getattr(owner, attr), **kw))

    path_size = lambda a, k: os.path.getsize(a[0])  # noqa: E731
    patch(cli, "_digest", "cli.digest", size=path_size)
    for fn in LOADS:
        patch(tensor_io, fn.split(".")[1], size=path_size)
    for fn in SAVES:
        patch(tensor_io, fn.split(".")[1], size_after=path_size)
    patch(selector, "plan_mixed_precision")
    patch(selector, "select_type")
    patch(selector, "argmin_mse_scale", tag=lambda a, k: _type_tag(_arg(a, k, 1, "ntype")),
          size=_sweep_evals)
    patch(qtypes, "quantize", tag=lambda a, k: _type_tag(_arg(a, k, 1, "scheme").ntype),
          size=lambda a, k: int(np.size(_arg(a, k, 0, "t"))))
    patch(qtypes, "dequantize", tag=lambda a, k: _type_tag(_arg(a, k, 0, "q").scheme.ntype),
          size=lambda a, k: int(_arg(a, k, 0, "q").codes.size))
    tr.patch([], NumericType, "code_values",
             tr.wrap("qtypes.code_values", NumericType.code_values))
    for fn in ("encode", "decode_int", "decode_float"):
        patch(flint, fn)
    patch(pe, "mac_step")
    patch(pe, "mul8_via_four")
    patch(sim, "simulate_model", size=lambda a, k: len(_arg(a, k, 1, "workload").layers))
    patch(sim, "write_report_json")
    patch(sim, "write_report_csv")
    patch(verify, "run_all")
    tr.patch_list(verify.ALL_CHECKS,
                  lambda fn: tr.wrap("verify." + fn.__name__.removeprefix("check_"), fn))


def layer_metrics(tr: Tracer, loop_runs: set[int], iters: int, check_runs: set[int]) -> dict:
    """Per-iteration layer metrics from the spans of the traced loop."""
    a = tr.arrays()
    dur = (a["end"] - a["start"]) / 1e9
    own = self_times(a["parent"], a["start"], a["end"]) / 1e9
    ids = {n: i for i, n in enumerate(tr.names)}
    tags = {n: i for i, n in enumerate(tr.tags)}
    in_loop = np.isin(a["run"], list(loop_runs))

    def sel(*names, tag=None, runs=None):
        mask = np.isin(a["name"], [ids[n] for n in names if n in ids])
        mask &= in_loop if runs is None else np.isin(a["run"], list(runs))
        if tag is not None:
            mask &= a["tag"] == tags.get(tag, -2)
        return mask

    per_iter = lambda x: float(x) / iters  # noqa: E731
    ratio = lambda x, y: float(x) / float(y) if y else 0.0  # noqa: E731
    m = {}
    cli_main, digest = sel("cli.main"), sel("cli.digest")
    m["cli.self_s"] = per_iter(own[cli_main].sum() + dur[digest].sum())
    m["cli.digest_bytes"] = per_iter(a["size"][digest].sum())
    load, save = sel(*LOADS), sel(*SAVES)
    m["tensor_io.load_s"] = per_iter(own[load].sum())
    m["tensor_io.save_s"] = per_iter(own[save].sum())
    m["tensor_io.bytes_read"] = per_iter(a["size"][load].sum())
    m["tensor_io.bytes_written"] = per_iter(a["size"][save].sum())

    plan = sel("selector.plan_mixed_precision")
    sweep = sel("selector.argmin_mse_scale")
    evals = a["size"][sweep].sum()
    m["selector.plan_s"] = per_iter(dur[plan].sum())
    m["selector.select_type_s"] = per_iter(dur[sel("selector.select_type")].sum())
    m["selector.argmin_mse_scale_s"] = per_iter(dur[sweep].sum())
    m["selector.sweep_evals"] = per_iter(evals)
    m["selector.eval_us"] = ratio(dur[sweep].sum() * 1e6, evals)
    serial = sel("selector.plan_mixed_precision", runs=check_runs)
    m["selector.pool_speedup"] = (ratio(np.median(dur[serial]), np.median(dur[plan]))
                                  if serial.any() and plan.any() else 0.0)
    # Each 8-bit layer selection is two int8 sweeps: weight and activation.
    m["selector.layers_8bit_selected"] = per_iter(
        np.count_nonzero(sel("selector.argmin_mse_scale", tag="int8")) / 2)

    for t in QTYPE_TAGS:
        for fn in ("quantize", "dequantize"):
            spans = sel(f"qtypes.{fn}", tag=t)
            m[f"qtypes.{t}.{fn}_melem_s"] = ratio(a["size"][spans].sum() / 1e6, dur[spans].sum())
    cv = sel("qtypes.code_values")
    m["qtypes.code_values_us"] = ratio(dur[cv].sum() * 1e6, np.count_nonzero(cv))
    m["qtypes.code_values_calls"] = per_iter(np.count_nonzero(cv))

    for key, names in (("flint.encode", ("flint.encode",)),
                       ("flint.decode", ("flint.decode_int", "flint.decode_float")),
                       ("pe.mac_step", ("pe.mac_step",)), ("pe.mul8", ("pe.mul8_via_four",))):
        spans = sel(*names)
        m[f"{key}_calls"] = per_iter(np.count_nonzero(spans))
        m[f"{key}_s"] = per_iter(own[spans].sum())
    for check in verify.ALL_CHECKS:
        name = "verify." + getattr(check, "__wrapped__", check).__name__.removeprefix("check_")
        m[f"{name}_s"] = per_iter(dur[sel(name)].sum())

    model = sel("sim.simulate_model")
    m["sim.simulate_model_s"] = per_iter(dur[model].sum())
    m["sim.layers_per_s"] = ratio(a["size"][model].sum(), dur[model].sum())
    m["sim.report_write_s"] = per_iter(dur[sel("sim.write_report_json", "sim.write_report_csv")].sum())
    m["trace.spans"] = per_iter(np.count_nonzero(in_loop))
    return m


# ---------------------------------------------------------------------------

def loop(wl: Workload, run: Runner, seconds: float) -> list[dict]:
    """Closed loop: whole iterations until ``seconds`` have passed (at least one)."""
    first = len(run.ops)
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        start = len(run.ops)
        wl.iteration(run)
        for op in run.ops[start:]:
            op["iteration"] = iteration
        iteration += 1
        if time.perf_counter() >= deadline:
            return run.ops[first:]


def iteration_times(ops: list[dict]) -> list[float]:
    return [sum(op["seconds"] for op in group) for group in per_iteration(ops)]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--data", required=True, help="directory written by gen.generate")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", help="where to write the spans (.npz)")
    p.add_argument("--probe", action="store_true", help="import and warm up only")
    args = p.parse_args(argv)

    if not os.path.abspath(flintq.__file__).startswith(SRC + os.sep):
        print(f"flintq imported from {flintq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    manifest = read_json(os.path.join(args.data, "inputs.json"))
    warm_up(manifest, args.data)
    if args.probe:
        return 0
    wl = WORKLOADS[args.workload](args.data, manifest)

    run = Runner()
    result: dict = {"notes": []}
    tracer = None
    if args.trace:
        untraced = loop(wl, run, args.seconds / 4)
        tracer = Tracer()
        install_tracer(tracer)
        run.tracer = tracer
    loop_ops = loop(wl, run, args.seconds)
    first_check = len(run.ops)
    wl.finish(run)
    check_runs = set(range(first_check, len(run.ops)))
    if tracer:
        tracer.uninstall()
        loop_runs = {op["run"] for op in loop_ops}
        iters = len(per_iteration(loop_ops))
        m = layer_metrics(tracer, loop_runs, iters, check_runs)
        if "workers" not in inspect.signature(selector.plan_mixed_precision).parameters:
            m["selector.pool_speedup"] = 0.0
            result["notes"].append("selector.pool_speedup absent: plan_mixed_precision takes no workers")
        m.update(wl.plan_metrics(m.pop("selector.layers_8bit_selected")))
        m.update(modelled_stats(wl.reference))
        traced = statistics.median(iteration_times(loop_ops))
        m["trace.overhead_s"] = traced - statistics.median(iteration_times(untraced))
        result["per_layer"] = m
        if args.trace_out:
            tracer.save(args.trace_out)
    else:
        result["e2e"] = {
            "op_s": median_of(loop_ops, wl.primary),
            "iteration_s": statistics.median(iteration_times(loop_ops)),
            "plan_cycles": wl.plan_cycles,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["named"] = wl.named(loop_ops)
    result["iterations"] = len(per_iteration(loop_ops))
    result["attempted"] = len(run.ops)
    result["failed"] = run.failed()
    result["errors"] = [f"{op['kind']}: {e}" for op in run.ops for e in op["errors"]][:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
