"""flintq benchmark launcher.

    python3 bench/run.py --workload plan-perchannel --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from
``--seed`` under ``.bench_run/``, pins the selection pool and the BLAS and
OpenMP thread counts, times set-up in fresh interpreters, then runs the
workload once in a fresh interpreter (``workload.py``).  It prints the
environment, the workload's named figures (one ``name value unit`` line
each) and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, and the spans
are written to ``.bench_run/traces/``.  See ``bench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = os.path.join(HERE, "workload.py")
SETUP_PROBES = 9
# Every run, the first of a checkout included, must end within 180 s.
CHILD_TIMEOUT_S = 150
# Units of the named figures printed above the result line.
NAMED_UNITS = {
    "select_s": "s", "plan_nmse": "ratio", "plan_cycles": "cycles", "quantize_melem_s": "Melem/s",
    "simulate_s": "s", "simulate_tail_s": "s", "simulate_tail_percentile": "%",
    "simulate_samples": "count", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env(tmp: str) -> dict:
    """The selection pool gets every CPU this process may use (the CLI
    default); BLAS and OpenMP get one thread, so nothing oversubscribes.
    Temporary files (``flintq verify`` writes some) stay in the checkout."""
    env = dict(os.environ)
    env["ANT_THREADS"] = str(nproc())
    env.update({k: "1" for k in PINNED})
    env["TMPDIR"] = tmp
    return env


def run_child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.Popen([sys.executable, WORKLOAD, *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def setup_seconds(base: list[str], env: dict) -> float:
    """Median wall time of fresh interpreters that import flintq and warm
    every layer up (input generation excluded)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = run_child([*base, "--probe"], env, timeout=60)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return statistics.median(times)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="flintq benchmark")
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "flintq", "__init__.py")):
        print(f"error: no flintq sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    env = child_env(os.path.join(run_dir, "tmp"))
    print("env " + json.dumps({
        "python": platform.python_version(), "numpy": np.__version__, "nproc": nproc(),
        "cpu": cpu_model(), "ANT_THREADS": env["ANT_THREADS"],
        **{k: env[k] for k in PINNED},
    }, sort_keys=True))

    try:
        manifest = gen.generate(args.workload, args.seed, run_dir)
        os.makedirs(env["TMPDIR"])
        print(f"inputs {manifest['elements']} tensor elements in "
              f"{len(manifest['tensors'])} tensors")
        base = ["--workload", args.workload, "--data", run_dir]
        setup = None if args.trace else setup_seconds(base, env)
        trace_out = os.path.join(ROOT, ".bench_run", "traces",
                                 f"{args.workload}-seed{args.seed}.npz")
        done = run_child([*base, "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--trace-out", trace_out], env, CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        print(f"error: workload exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for note in result["notes"]:
        print(f"note: {note}")
    values = result["per_layer"] if args.trace else {**result["e2e"], "setup_s": setup}
    if not args.trace:
        named = {**result["named"], "setup_s": setup, "peak_rss_mb": values["peak_rss_mb"],
                 "fail_ratio": result["failed"] / result["attempted"]}
        for name, value in named.items():
            print(f"{name} {value!r} {NAMED_UNITS[name]}")
    print(f"iterations {result['iterations']}")
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
