"""One SHA-256 for every output the CLI writes on the benchmark's inputs.

``bench/gen.py`` writes the seed-7 inputs of all three benchmark
workloads into a temporary directory, and every command below runs on
them through ``cli.main``:

* ``select --mse-csv`` on both plan workloads, with the default
  candidates and with ``int,pot,flint,float``, and ``simulate`` (os and
  ws) on each plan written;
* ``simulate`` of every sim-datapath graph and plan on ``array64.json``,
  os and ws;
* ``quantize`` of plan-large-tensor's quantize input for every kind at 4
  and 8 bits, with the benchmark's fixed ``--scale`` and with a searched
  scale;
* ``tables`` for every kind at 4 and 8 bits, and ``verify``;
* every argv of ``test_cli.test_bad_flag_value_is_a_usage_error_naming_the_flag``.

Each written file, each command's stdout and each usage error is kept as
one digest in ``tests/data/output_digests.json``.  A JSON file is hashed
without its ``manifest`` (input digests and an argv of temporary paths),
any other file as its bytes; stdout with the temporary directory written
``<tmp>`` and without ``verify``'s timings; a usage error by its
``error:`` line alone, since argparse lays out usage and help lines
differently from one Python version to the next.

A change that moves an output on purpose rewrites the digest file with::

    PYTHONPATH=src python tests/test_outputs.py

and says which entries moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile

import numpy as np
import pytest

import test_cli
from flintq import cli, tensor_io
from flintq.qtypes import NumericType

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "data", "output_digests.json")
SEED = 7
CANDIDATES = {"default": [], "all-kinds": ["--candidates", "int,pot,flint,float"]}
DATAFLOWS = ("os", "ws")
BAD_FLAGS = next(m for m in test_cli.test_bad_flag_value_is_a_usage_error_naming_the_flag.pytestmark
                 if m.name == "parametrize").args[1]


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "bench_gen", os.path.join(os.path.dirname(HERE), "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    if path.endswith(".json"):
        with open(path) as f:
            doc = json.load(f)
        doc.pop("manifest", None)
        return _sha((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
    with open(path, "rb") as f:
        return _sha(f.read())


class _Outputs:
    """Runs commands in one temporary directory and keeps their digests."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.digests: dict[str, str] = {}

    def run(self, name: str, argv: list[str], files: tuple[str, ...] = ()) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert (rc, err.getvalue()) == (0, ""), (name, rc, err.getvalue())
        text = out.getvalue().replace(self.tmp, "<tmp>")
        text = re.sub(r"  \(\d+\.\d+ s\)$", "", text, flags=re.M)  # verify's timings
        self.digests[f"{name}/stdout"] = _sha(text.encode())
        for path in files:
            self.digests[f"{name}/{os.path.basename(path)}"] = _file_digest(path)

    def usage_error(self, argv: list[str]) -> None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        [line] = [l for l in err.getvalue().splitlines() if ": error: " in l]
        self.digests["usage-error/" + " ".join(argv)] = _sha(line.encode())


def outputs(tmp: str) -> dict[str, str]:
    """The digest of every output, by entry name."""
    gen = _load_gen()
    o = _Outputs(tmp)
    for workload in ("plan-perchannel", "plan-large-tensor"):
        data = os.path.join(tmp, workload)
        manifest = gen.generate(workload, SEED, data)
        model = os.path.join(data, manifest["model"])
        for label, flags in CANDIDATES.items():
            name = f"{workload}/select-{label}"
            plan, mse_csv = (os.path.join(data, f"{label}.{f}") for f in ("plan.json", "mse.csv"))
            o.run(name, ["select", model, "--threshold", repr(manifest["threshold"]), *flags,
                         "--out", plan, "--mse-csv", mse_csv], (plan, mse_csv))
            for dataflow in DATAFLOWS:
                prefix = os.path.join(data, f"{label}.{dataflow}.report")
                o.run(f"{name}/simulate-{dataflow}",
                      ["simulate", model, plan, "--dataflow", dataflow, "--out", prefix],
                      (prefix + ".json", prefix + ".csv"))
    src = os.path.join(data, manifest["quantize_input"])
    max_abs = float(np.max(np.abs(tensor_io.load_tensor(src))))
    for kind, bits in manifest["quantize_types"]:
        flags = ["--type", kind, "--bits", str(bits), "--signed"]
        out = os.path.join(data, f"q.{kind}{bits}.qtensor")
        o.run(f"quantize/{kind}{bits}-searched", ["quantize", src, *flags, "--out", out], (out,))
        scale = 0.9 * max_abs / NumericType(kind, bits, signed=True).max_value()  # as the bench
        o.run(f"quantize/{kind}{bits}-fixed",
              ["quantize", src, *flags, "--scale", repr(scale), "--out", out], (out,))

    data = os.path.join(tmp, "sim-datapath")
    manifest = gen.generate("sim-datapath", SEED, data)
    for graph, plan, config, dataflow in manifest["combos"]:
        if config != "array64.json":
            continue
        prefix = os.path.join(data, "report")
        o.run(f"sim-datapath/{plan}/{dataflow}",
              ["simulate", os.path.join(data, graph), os.path.join(data, plan),
               "--config", os.path.join(data, config), "--dataflow", dataflow, "--out", prefix],
              (prefix + ".json", prefix + ".csv"))
    for kind, bits in manifest["tables"]:
        o.run(f"tables/{kind}{bits}", ["tables", "--type", kind, "--bits", str(bits), "--signed"])
    o.run("verify", ["verify"])

    for argv, _ in BAD_FLAGS:
        o.usage_error(argv)
    return o.digests


def test_every_output_keeps_its_digest(tmp_path):
    got = outputs(str(tmp_path))
    with open(DIGESTS) as f:
        want = json.load(f)
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not moved, f"{len(moved)} of {len(want)} digests moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = outputs(tmp)
    with open(DIGESTS, "w") as f:
        f.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}: {len(digests)} digests", file=sys.stderr)
