"""Command-line surface for the quantization pipeline.

Subcommands: tables, quantize, select, simulate, verify.  All commands are
deterministic; every JSON artifact embeds a run manifest (command line,
tool version, input digests).

Exit codes:
  0  success
  2  usage error (bad flags)
  3  missing, unreadable or malformed input file, or unwritable output path
  4  validation error (shapes, types, configuration)
  5  plan/model mismatch
  6  verification failure
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import os
import sys

import numpy as np

from . import __version__, flint, sim, tensor_io, verify
from .qtypes import KINDS, NumericType, QuantScheme, QuantizationError, quantize
from .selector import (
    DEFAULT_CANDIDATES,
    LayerTensors,
    argmin_mse_scale,
    make_candidates,
    plan_mixed_precision,
)

EXIT_INPUT = 3
EXIT_VALIDATION = 4
EXIT_PLAN_MISMATCH = 5
EXIT_VERIFY = 6


class PlanMismatchError(ValueError):
    pass


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args: argparse.Namespace, inputs: list[str]) -> dict:
    """Each input's digest is keyed by its path relative to the model's
    directory, so two files of one name in different directories keep
    one digest each."""
    root = os.path.dirname(os.path.abspath(args.model))
    return {
        "command": args.command,
        "argv": args.argv,
        "version": __version__,
        "inputs": {os.path.relpath(p, root): _digest(p) for p in inputs if p},
    }


def _parse_ntype(args: argparse.Namespace) -> NumericType:
    return NumericType(args.type, args.bits, args.signed, args.float_split)


def _checked(cast, ok, expected: str):
    """An argparse type: ``cast(text)``, which ``ok`` must accept (a NaN
    fails every comparison); otherwise a usage error expecting ``expected``."""
    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_tables(args: argparse.Namespace) -> int:
    t = _parse_ntype(args)
    values = t.code_values()
    # The exponent column is the value's power of two: base * 2**exponent.
    pair = t.decoded()
    base, exponent = pair.base, pair.exponent - t.exponent_offset
    rows = [
        {"code": format(code, f"0{t.width}b"), "base": base[code],
         "exponent": exponent[code], "value": values[code]}
        for code in range(values.size)
    ]
    fields = ["code", "base", "exponent", "value"]
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=fields)
            w.writeheader()
            w.writerows(rows)
    else:
        print(f"# {t.name}")
        print(f"{'code':>8} {'base':>6} {'exp':>4} {'value':>10}")
        for r in rows:
            print(f"{r['code']:>8} {r['base']:>6} {r['exponent']:>4} {r['value']:>10g}")
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    t = tensor_io.load_tensor(args.input)
    ntype = _parse_ntype(args)
    if args.scale is not None:
        scheme = QuantScheme(ntype, np.array([args.scale]))
    else:
        scheme, _, _ = argmin_mse_scale(t, ntype, axis=args.axis)
    q = quantize(t, scheme)
    tensor_io.save_qtensor(args.out, q)
    print(f"wrote {args.out}: {q.codes.size} codes ({ntype.name})")
    return 0


def _load_layer_tensors(model: str, layers: list[tensor_io.GraphLayer]) -> list[LayerTensors]:
    out = []
    for layer in layers:
        where = f"{model}: model layer {layer.layer_id}"
        if layer.weight_path is None:
            raise tensor_io.TensorIOError(f"{where}: no weight tensor")
        if not layer.calibration_paths:
            raise tensor_io.TensorIOError(f"{where}: activation selection needs calibration tensors")
        weight = tensor_io.load_tensor(layer.weight_path)
        acts = np.concatenate(
            [tensor_io.load_tensor(p).ravel() for p in layer.calibration_paths]
        )
        axis = 0 if weight.ndim > 1 else None
        out.append(LayerTensors(layer.layer_id, weight, acts, weight_axis=axis))
    return out


def cmd_select(args: argparse.Namespace) -> int:
    graph = tensor_io.load_model_graph(args.model)
    layer_tensors = _load_layer_tensors(args.model, graph)
    candidates = make_candidates(args.candidates, width=4, signed=True)
    plan = plan_mixed_precision(
        layer_tensors,
        candidates,
        threshold=args.threshold,
        max_promotions=args.promote_budget,
    )
    inputs = [args.model] + [p for l in graph for p in [l.weight_path, *l.calibration_paths]]
    doc = plan.to_json()
    doc["manifest"] = _manifest(args, inputs)
    tensor_io.save_plan(args.out, doc)
    if args.mse_csv:
        _write_mse_csv(args.mse_csv, plan)
    print(f"wrote {args.out}: {len(plan.layers)} layers, "
          f"{sum(1 for l in plan.layers if l.width == 8)} promoted to 8-bit")
    return 0


def _write_mse_csv(path: str, plan) -> None:
    """Per-tensor candidate MSEs, normalized to the chosen type's."""
    rows = []
    for layer in plan.layers:
        for role, sel in (("weight", layer.weight_4bit), ("activation", layer.activation_4bit)):
            for cand, err in sel.per_candidate_mse.items():
                rows.append({
                    "layer": layer.layer_id,
                    "tensor": role,
                    "candidate": cand,
                    "mse": err,
                    "mse_normalized_to_chosen": err / sel.mse_value if sel.mse_value else "",
                    "chosen": int(cand == sel.ntype.name),
                })
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(
            f,
            fieldnames=["layer", "tensor", "candidate", "mse", "mse_normalized_to_chosen", "chosen"],
        )
        w.writeheader()
        w.writerows(rows)


def cmd_simulate(args: argparse.Namespace) -> int:
    graph = tensor_io.load_model_graph(args.model)
    # Only ids, widths and ntypes are read: the scales and MSEs stay undecoded.
    plan = tensor_io.load_plan(args.plan, parse_float=str.encode)
    plan_layers = {l["layerId"]: l for l in plan["layers"]}
    missing = [l.layer_id for l in graph if l.layer_id not in plan_layers]
    if missing:
        raise PlanMismatchError(f"{args.plan}: plan does not cover layers: {', '.join(missing)}")

    cfg = tensor_io.load_array_config(args.config) if args.config else sim.ArrayConfig()
    if args.dataflow:
        cfg = dataclasses.replace(cfg, dataflow=args.dataflow)

    layers = []
    for gl in graph:
        width = tensor_io.plan_layer_width(plan_layers[gl.layer_id],
                                           f"{args.plan}: plan layer {gl.layer_id}")
        layers.append(sim.GemmLayer(gl.layer_id, gl.m, gl.n, gl.k, width=width))
    try:
        report = sim.simulate_model(cfg, sim.GemmWorkload(layers))
    except sim.SimConfigError as exc:  # a layer the configured array cannot take
        if not args.config:
            raise
        raise sim.SimConfigError(f"{args.config}: config: {exc}") from None
    inputs = [args.model, args.plan] + ([args.config] if args.config else [])
    sim.write_report_json(report, args.out + ".json", manifest=_manifest(args, inputs))
    sim.write_report_csv(report, args.out + ".csv")
    totals = report.totals()
    print(f"wrote {args.out}.json/.csv: {totals.cycles} cycles, "
          f"energy {totals.total_energy():.3g}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ok = verify.run_all(sys.stdout)
    return 0 if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flintq",
        description="Adaptive low-bit quantization toolkit",
        epilog=__doc__.split("Exit codes:")[1].join(["Exit codes:", ""]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    ntype_flags = argparse.ArgumentParser(add_help=False)  # tables and quantize
    ntype_flags.add_argument("--type", required=True, choices=KINDS)
    ntype_flags.add_argument("--bits", type=_checked(int, lambda width: 3 <= width <= 8,
                                                     "a width from 3 to 8"), default=4)
    ntype_flags.add_argument("--signed", action="store_true")
    ntype_flags.add_argument("--float-split", help="E,M for float types",
                             type=_checked(lambda text: tuple(int(f) for f in text.split(",")),
                                           lambda split: len(split) == 2, "E,M (two integers)"))

    p = sub.add_parser("tables", parents=[ntype_flags],
                       help="print the value table of a numeric type")
    p.add_argument("--csv", help="write CSV instead of stdout")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("quantize", parents=[ntype_flags], help="quantize a tensor file")
    p.add_argument("input")
    fixed_or_searched = p.add_mutually_exclusive_group()
    fixed_or_searched.add_argument("--scale", type=_checked(float, lambda s: 0 < s < np.inf,
                                                            "a finite number > 0"),
                                   help="fixed per-tensor scale (default: MSE scale search)")
    fixed_or_searched.add_argument("--axis", type=int, help="per-channel axis of the search")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("select", help="select types and plan mixed precision")
    p.add_argument("model", help="model graph JSON")
    p.add_argument("--candidates", default=list(DEFAULT_CANDIDATES),
                   type=_checked(lambda text: [k.strip() for k in text.split(",")],
                                 lambda kinds: set(kinds) <= set(KINDS),
                                 f"comma-separated kinds among {','.join(KINDS)}"),
                   help="comma-separated kinds to choose among (default: int,pot,flint)")
    p.add_argument("--threshold", type=_checked(float, lambda t: t >= 0, "a non-negative float"),
                   default=float("inf"), help="aggregate normalized-MSE target for promotion")
    p.add_argument("--promote-budget", type=_checked(int, lambda n: n >= 0, "a non-negative int"),
                   help="max layers promoted to 8-bit")
    p.add_argument("--out", required=True, help="plan JSON path")
    p.add_argument("--mse-csv", help="per-tensor candidate MSE CSV")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="simulate a planned workload")
    p.add_argument("model")
    p.add_argument("plan")
    p.add_argument("--config", help="array config JSON")
    p.add_argument("--dataflow", choices=["os", "ws"])
    p.add_argument("--out", required=True, help="report path prefix (.json/.csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the exhaustive decoder/MAC oracle suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # what the manifest records
    try:
        return args.func(args)
    except (OSError, tensor_io.TensorIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PlanMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN_MISMATCH
    except (QuantizationError, flint.FlintDomainError, sim.SimConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
