"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when it completes; a failing criterion
reports its deviation in the assertion message.  Timing budgets are wall
clock on the test machine and are asserted directly.
"""

import itertools
import json
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from flintq import cli, flint, pe, sim, tensor_io
from flintq.qtypes import NumericType, QuantScheme, dequantize, quantize
from flintq.selector import make_candidates, plan_mixed_precision, select_type, LayerTensors

HERE = os.path.dirname(__file__)
UNSIGNED4 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 24, 32, 64]
SIGNED4 = sorted({0, *(v for m in (1, 2, 3, 4, 6, 8, 16) for v in (m, -m))})
INT_DECODE_ROWS = (
    [(c, c, 0) for c in range(8)]
    + [(0b1100 | m, 8 + 2 * m, 0) for m in range(4)]
    + [(0b1010 | m, 4 + 2 * m, 2) for m in range(2)]
    + [(0b1001, 2, 4), (0b1000, 1, 6)]
)


def _done(name, start, budget):
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS  {name} ({elapsed:.2f}s)")


def test_criterion_golden_value_tables():
    start = time.monotonic()
    for decoder in (lambda c: flint.decode_float(c).value, lambda c: flint.decode_int(c).value):
        assert sorted(decoder(c) for c in flint.all_codes(4)) == UNSIGNED4
    for code, base, exp in INT_DECODE_ROWS:
        pair = flint.decode_int(flint.FlintCode(code, 4))
        assert (pair.base, pair.exponent) == (base, exp), f"code {code:04b}"
    assert flint.enumerate_values(4, signed=True) == SIGNED4
    _done("golden value tables", start, 1.0)


def test_criterion_encoder_worked_example():
    c = flint.encode(11, 4, 1.0)
    assert c.bits == 0b1110
    assert flint.decode_value(c) == 12
    print("PASS  encoder worked example")


def test_criterion_decoder_equivalence():
    start = time.monotonic()
    for b in range(3, 9):
        for signed in (False, True):
            for c in flint.all_codes(b, signed):
                assert flint.decode_float(c).value == flint.decode_int(c).value, (
                    f"width {b} signed={signed} code {c.bits:0{b}b}"
                )
    _done("decoder equivalence (widths 3-8)", start, 1.0)


def test_criterion_nearest_value_fidelity():
    # Every integer of the 4-bit flint range, every midpoint of neighbouring
    # grid values, one ulp either side of each, and seeded random reals, in
    # both signs: the encoder gives the nearest grid value (exact distances,
    # no call into the code under test).  At a tie it gives one of the two
    # nearest values, an integer tie must be in the golden list, and the
    # rule is: away from zero.
    with open(os.path.join(HERE, "data", "flint4_ties.json")) as f:
        golden = json.load(f)
    rng = np.random.default_rng(4)
    for signed, key in ((False, "unsigned"), (True, "signed")):
        grid = flint.enumerate_values(4, signed)
        ties = {t["input"]: t for t in golden[key]}
        lo = -grid[-1] if signed else 0
        mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        points = ([float(e) for e in range(lo, grid[-1] + 1)] + mids
                  + [float(np.nextafter(m, d)) for m in mids for d in (-np.inf, np.inf)]
                  + rng.uniform(lo - 4, grid[-1] + 4, 2000).tolist())
        for x in points:
            got = flint.decode_value(flint.encode(x, 4, 1.0, signed))
            dist = sorted((abs(Fraction(x) - v), -abs(v), v) for v in grid)
            best = dist[0][2]
            if dist[0][0] == dist[1][0]:
                pair = sorted([dist[0][2], dist[1][2]])
                assert got == best, f"{key}: tie at {x} -> {got}, not {best} (away from zero)"
                if x == int(x):
                    tie = ties.get(int(x))
                    assert tie is not None and tie["nearest"] == pair, f"{key}: tie at {x} not listed"
                    assert got in tie["nearest"], f"{key}: {x} -> {got} not in {tie['nearest']}"
            else:
                assert got == best, f"{key}: disagreement at {x}: {got} vs {best}"
                assert int(x) != x or int(x) not in ties, f"{key}: listed tie {x} is no tie"
    print("PASS  nearest-value fidelity (ties confined to golden list)")


def test_criterion_mac_bit_exactness():
    start = time.monotonic()
    kinds = ("int", "pot", "flint")
    wide = pe.MacState(acc_width=64, product_width=64)
    for signed in (False, True):
        types = {k: NumericType(k, 4, signed) for k in kinds}
        luts = {k: types[k].code_values() for k in kinds}
        decoded = {k: types[k].decoded() for k in kinds}
        for ka, kb in itertools.product(kinds, repeat=2):
            for ca in range(16):
                da = flint.DecodedPair(int(decoded[ka].base[ca]), int(decoded[ka].exponent[ca]))
                for cb in range(16):
                    db = flint.DecodedPair(int(decoded[kb].base[cb]), int(decoded[kb].exponent[cb]))
                    s = pe.mac_step(wide, da, db)
                    assert s.accumulator == luts[ka][ca] * luts[kb][cb], (
                        f"{ka}x{kb} signed={signed} codes ({ca},{cb})"
                    )
    _done("MAC bit-exactness (all 4-bit type/code pairs)", start, 5.0)


def test_criterion_eight_bit_composition():
    start = time.monotonic()
    for a in range(256):
        for b in range(256):
            assert pe.mul8_via_four(a, b, signed=False) == a * b
    for a in range(-128, 128):
        for b in range(-128, 128):
            assert pe.mul8_via_four(a, b, signed=True) == a * b
    _done("8-bit multiply composed from four 4-bit steps", start, 5.0)


def test_criterion_selection_behavior():
    # Required: on 10 000-sample tensors, for 10/10 seeds, uniform data
    # selects int, a bell shape with outliers selects flint, an
    # outlier-dominated tensor selects pot, each strictly, and flint's MSE
    # on its case is <= 0.9x int's.
    #
    # The bell and outlier cases once used an exact standard normal and a
    # cubed normal; neither can hold for the 4-bit grids.  An oracle that
    # does not call select_type (nearest-grid rounding, 300 log-spaced
    # clips over 0.02-3x max|v|) puts int4 at 0.0111-0.0123 and flint4 at
    # 0.0141-0.0153 on standard normals (seeds 0-9), and pot4 and flint4
    # tie on cubed normals (0.599 vs 0.616 at 400k samples; at 10k flint
    # is lower on seeds 1, 3, 6, 8).  On the inputs below the same oracle
    # agrees with the expected winner on seeds 0-99: 5% of a normal
    # scaled x4 gives flint 0.051, pot 0.067, int 0.090 at 200k samples,
    # and Student-t(2) gives pot a runner-up margin of at least 1.43x.
    start = time.monotonic()
    cands_s = make_candidates(("int", "pot", "flint"), 4, True)
    cands_u = make_candidates(("int", "pot", "flint"), 4, False)
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        uniform = rng.uniform(0, 1, 10000)
        bell = rng.standard_normal(10000)
        bell[rng.random(10000) < 0.05] *= 4
        cases = {
            "uniform": (uniform, cands_u, "int"),
            "outlier bell": (bell, cands_s, "flint"),
            "student-t2": (rng.standard_t(2, 10000), cands_s, "pot"),
        }
        for name, (t, cands, want) in cases.items():
            sel = select_type(t, cands)
            others = [v for k, v in sel.per_candidate_mse.items() if k != sel.ntype.name]
            if sel.ntype.kind != want or not all(sel.mse_value < v for v in others):
                failures.append(
                    f"seed {seed} {name}: {sel.ntype.kind} won "
                    f"({ {k: round(v, 5) for k, v in sel.per_candidate_mse.items()} })"
                )
            if want == "flint":
                flint_mse = sel.per_candidate_mse["flint4"]
                int_mse = sel.per_candidate_mse["int4"]
                if not flint_mse <= 0.9 * int_mse:
                    failures.append(
                        f"seed {seed} {name}: flint {flint_mse:.5f} > 0.9 x int {int_mse:.5f}"
                    )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"selection behavior: took {elapsed:.2f}s, budget 10s"
    assert not failures, "selection behavior deviations:\n" + "\n".join(failures)
    print(f"PASS  selection behavior, 10/10 seeds ({elapsed:.2f}s)")


def test_criterion_promotion_loop():
    # Five layers built so their 4-bit normalized MSE ordering is known:
    # heavier tails quantize worse, so mixing in large outliers ranks them.
    rng = np.random.default_rng(42)
    layers = []
    for i in range(5):
        w = rng.standard_normal((8, 64))
        w[:, :4] *= 1 + 6 * i  # growing outlier mass -> growing relative error
        a = np.abs(rng.standard_normal(512))
        layers.append(LayerTensors(f"L{i}", w, a))
    cands = make_candidates(("int", "pot", "flint"), 4, True)
    base = plan_mixed_precision(layers, cands)
    ranked = sorted(base.layers, key=lambda l: -l.normalized_mse)
    expected_order = [l.layer_id for l in ranked]
    assert len({l.normalized_mse for l in base.layers}) == 5, "ordering must be strict"
    prev = base.aggregate_mse
    for budget in range(1, 6):
        plan = plan_mixed_precision(layers, cands, threshold=0.0, max_promotions=budget)
        assert plan.promotion_order == expected_order[:budget]
        assert plan.aggregate_mse <= prev, f"aggregate MSE rose at step {budget}"
        prev = plan.aggregate_mse
    print("PASS  promotion loop (descending-MSE order, non-increasing aggregate)")


def test_criterion_simulator_ratios():
    start = time.monotonic()
    cfg_os = sim.ArrayConfig(dataflow="os")
    cfg_ws = sim.ArrayConfig(dataflow="ws")
    l4 = sim.GemmLayer("g", 256, 256, 256, width=4)
    l8 = sim.GemmLayer("g", 256, 256, 256, width=8)
    r4 = sim.simulate_layer(cfg_os, l4)
    r8 = sim.simulate_layer(cfg_os, l8)
    ratio = r8.compute_cycles / r4.compute_cycles
    assert ratio >= 3.8, f"8-bit/4-bit compute cycle ratio {ratio:.2f} < 3.8"
    assert r4.dram_bits_weight * 2 == r8.dram_bits_weight, "weight DRAM not exactly halved"
    for s in (384, 448, 512):
        l = sim.GemmLayer("sq", s, s, s, width=4)
        c_os = sim.simulate_layer(cfg_os, l).cycles
        c_ws = sim.simulate_layer(cfg_ws, l).cycles
        gap = max(c_os, c_ws) / min(c_os, c_ws)
        assert gap <= 1.15, f"square {s}: OS/WS cycle gap {gap:.3f} > 1.15"
    _done("simulator ratios (compute scaling, DRAM halving, OS~WS)", start, 10.0)


def test_criterion_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(3)
    t = rng.standard_normal((6, 10))
    tp = str(tmp_path / "t.tensor")
    tensor_io.save_tensor(tp, t, name="rt")
    tensor_io.save_tensor(str(tmp_path / "t2.tensor"), tensor_io.load_tensor(tp), name="rt")
    assert Path(tp).read_bytes() == (tmp_path / "t2.tensor").read_bytes()

    q = quantize(t, QuantScheme(NumericType("flint", 4, True), np.array([0.2])))
    qp = str(tmp_path / "t.q")
    tensor_io.save_qtensor(qp, q)
    tensor_io.save_qtensor(str(tmp_path / "t2.q"), tensor_io.load_qtensor(qp))
    assert Path(qp).read_bytes() == (tmp_path / "t2.q").read_bytes()
    assert np.array_equal(dequantize(tensor_io.load_qtensor(qp)), dequantize(q))

    plan = {"layers": [{"layerId": "a", "width": 4}], "aggregateMse": 0.25}
    pp = str(tmp_path / "plan.json")
    tensor_io.save_plan(pp, plan)
    tensor_io.save_plan(str(tmp_path / "plan2.json"), tensor_io.load_plan(pp))
    assert Path(pp).read_text() == (tmp_path / "plan2.json").read_text()

    report = sim.simulate_model(
        sim.ArrayConfig(), sim.GemmWorkload([sim.GemmLayer("a", 64, 64, 64)])
    )
    rp = str(tmp_path / "rep.json")
    sim.write_report_json(report, rp)
    with open(rp) as f:
        doc = json.load(f)
    with open(str(tmp_path / "rep2.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    assert Path(rp).read_text() == (tmp_path / "rep2.json").read_text()

    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert all(l.startswith("PASS") for l in out.splitlines() if l.strip())
    print("PASS  serialization round-trips and verify command")
