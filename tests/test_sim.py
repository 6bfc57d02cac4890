import csv
import json
import math

import pytest

from flintq import sim

OS = sim.ArrayConfig(dataflow="os")
WS = sim.ArrayConfig(dataflow="ws")


def layer(m, n, k, width=4, **kw):
    return sim.GemmLayer("L", m, n, k, width=width, **kw)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(sim.SimConfigError):
        sim.ArrayConfig(n=0)
    with pytest.raises(sim.SimConfigError):
        sim.ArrayConfig(n=63)  # must pair up for 8-bit mode
    with pytest.raises(sim.SimConfigError):
        sim.ArrayConfig(dataflow="rs")
    with pytest.raises(sim.SimConfigError):
        sim.ArrayConfig(dram_bandwidth_bits=0)
    with pytest.raises(sim.SimConfigError):
        sim.ArrayConfig(energy=sim.EnergyTable(mac4=-1))


def test_config_json_roundtrip():
    cfg = sim.ArrayConfig(n=32, dataflow="ws", energy=sim.EnergyTable(mac8=5.0))
    assert sim.ArrayConfig.from_json(cfg.to_json()) == cfg


def test_layer_validation():
    with pytest.raises(sim.SimConfigError):
        sim.GemmLayer("x", 1, 1, -1)
    with pytest.raises(sim.SimConfigError):
        sim.GemmLayer("x", 1, 1, 1, width=6)


def test_tile_must_fit_buffer():
    tiny = sim.ArrayConfig(buffer_bytes=1024)
    with pytest.raises(sim.SimConfigError):
        sim.simulate_layer(tiny, layer(64, 64, 64))


# ---------------------------------------------------------------------------
# Cycle model
# ---------------------------------------------------------------------------

def test_os_cycles_single_tile():
    rep = sim.simulate_layer(OS, layer(64, 64, 1000))
    assert rep.compute_cycles == 1000
    assert rep.overhead_cycles == 2 * 64
    # This thin layer is DRAM limited; total cycles follow the traffic.
    assert rep.bandwidth_bound
    assert rep.cycles == math.ceil(rep.dram_bits / OS.dram_bandwidth_bits)


def test_os_cycles_tiled():
    rep = sim.simulate_layer(OS, layer(128, 192, 100))
    # ceil(128/64) * ceil(192/64) = 6 output tiles
    assert rep.compute_cycles == 6 * 100
    assert rep.overhead_cycles == 6 * 2 * 64


def test_ws_cycles_tiled():
    rep = sim.simulate_layer(WS, layer(100, 128, 192))
    # ceil(192/64) * ceil(128/64) = 6 weight tiles, M passes each
    assert rep.compute_cycles == 6 * 100
    assert rep.overhead_cycles == 6 * 64  # preload only


def test_8bit_halves_the_array():
    l4 = layer(256, 256, 256, width=4)
    l8 = layer(256, 256, 256, width=8)
    r4 = sim.simulate_layer(OS, l4)
    r8 = sim.simulate_layer(OS, l8)
    # 4x fewer effective PEs -> exactly 4x the compute cycles.
    assert r8.compute_cycles == 4 * r4.compute_cycles
    assert r4.mac4_ops == 256 ** 3 and r4.mac8_ops == 0
    assert r8.mac8_ops == 256 ** 3 and r8.mac4_ops == 0


def test_bandwidth_bound_layer():
    slow = sim.ArrayConfig(dram_bandwidth_bits=1)
    rep = sim.simulate_layer(slow, layer(64, 64, 64))
    assert rep.bandwidth_bound
    assert rep.cycles == math.ceil(rep.dram_bits / 1)


def test_dram_cycles_overflowing_a_float_rejected():
    # A positive but subnormal bandwidth makes bits / bandwidth infinite.
    with pytest.raises(sim.SimConfigError, match="overflow"):
        sim.simulate_layer(sim.ArrayConfig(dram_bandwidth_bits=1e-320), layer(64, 64, 64))


def test_zero_dim_layer_is_free():
    rep = sim.simulate_layer(OS, layer(0, 64, 64))
    assert rep.cycles == 0 and rep.total_energy() == 0.0


# ---------------------------------------------------------------------------
# Traffic model
# ---------------------------------------------------------------------------

def test_dram_weight_bits_scale_with_width():
    r4 = sim.simulate_layer(OS, layer(256, 256, 256, width=4))
    r8 = sim.simulate_layer(OS, layer(256, 256, 256, width=8))
    # Layer fits the buffer in both modes: weights stream from DRAM once,
    # so 4-bit halves weight traffic exactly.
    assert r8.dram_bits_weight == 2 * r4.dram_bits_weight
    assert r8.dram_bits_act == 2 * r4.dram_bits_act
    assert r8.dram_bits_out == r4.dram_bits_out  # outputs stay high precision


def test_dram_reload_when_operand_exceeds_buffer():
    m = n = k = 2048  # 4-bit operand = 2 MiB > half of the 512 KiB buffer
    rep = sim.simulate_layer(OS, layer(m, n, k))
    tiles = -(-m // 64)
    assert rep.dram_bits_weight == tiles * k * n * 4
    ws_rep = sim.simulate_layer(WS, layer(m, n, k))
    assert ws_rep.dram_bits_weight == k * n * 4  # stationary weights load once


def test_ws_partial_sum_traffic_grows_with_k():
    small_k = sim.simulate_layer(WS, layer(256, 256, 64))
    large_k = sim.simulate_layer(WS, layer(256, 256, 4096))
    # (2*tk - 1) * M * N * out_bits term dominates at large K.
    assert large_k.sram_bits > 32 * small_k.sram_bits


def test_ws_buffer_energy_exceeds_os_at_large_k():
    l = layer(256, 256, 8192)
    e_os = sim.simulate_layer(OS, l).energy["buffer"]
    e_ws = sim.simulate_layer(WS, l).energy["buffer"]
    assert e_ws > e_os


def test_decode_events():
    l = layer(128, 128, 50)
    assert sim.simulate_layer(OS, l).decode_events == 4 * 2 * 64 * 50  # tiles * both edges * K
    ws = sim.simulate_layer(WS, sim.GemmLayer("L", 50, 128, 128))
    assert ws.decode_events == 4 * (64 * 64 + 64 * 50)


def test_encode_events_match_output_size():
    rep = sim.simulate_layer(OS, layer(100, 120, 30))
    assert rep.encode_events == 100 * 120


# ---------------------------------------------------------------------------
# Energy model
# ---------------------------------------------------------------------------

def test_energy_breakdown_is_events_times_costs():
    e = sim.EnergyTable(dram_per_bit=2, sram_per_bit=3, mac4=5, mac8=7,
                        decode=11, static_per_cycle=13)
    cfg = sim.ArrayConfig(energy=e)
    rep = sim.simulate_layer(cfg, layer(64, 64, 64))
    assert rep.energy["static"] == 13 * rep.cycles
    assert rep.energy["dram"] == 2 * rep.dram_bits
    assert rep.energy["buffer"] == 3 * rep.sram_bits
    assert rep.energy["core"] == 5 * rep.mac4_ops + 11 * (
        rep.decode_events + rep.encode_events
    )


def test_4bit_core_energy_beats_8bit():
    r4 = sim.simulate_layer(OS, layer(256, 256, 256, width=4))
    r8 = sim.simulate_layer(OS, layer(256, 256, 256, width=8))
    assert r4.energy["core"] < r8.energy["core"]
    assert r4.total_energy() < r8.total_energy()


# ---------------------------------------------------------------------------
# Dataflow comparison
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [384, 448, 512])
def test_os_ws_cycles_close_on_square_gemms(s):
    l = layer(s, s, s)
    c_os = sim.simulate_layer(OS, l).cycles
    c_ws = sim.simulate_layer(WS, l).cycles
    assert max(c_os, c_ws) / min(c_os, c_ws) <= 1.15


def test_os_favored_by_large_k_ws_by_large_m():
    deep = layer(64, 64, 8192)  # many accumulations per output
    assert sim.simulate_layer(OS, deep).overhead_cycles < sim.simulate_layer(WS, deep).cycles
    tall = layer(8192, 64, 64)  # weights reused across many rows
    os_tall = sim.simulate_layer(OS, tall)
    ws_tall = sim.simulate_layer(WS, tall)
    assert ws_tall.overhead_cycles < os_tall.overhead_cycles


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _workload():
    return sim.GemmWorkload([
        sim.GemmLayer("a", 128, 128, 128, width=4),
        sim.GemmLayer("b", 128, 128, 128, width=8),
    ])


def test_totals_sum_layers():
    rep = sim.simulate_model(OS, _workload())
    t = rep.totals()
    assert t.cycles == sum(r.cycles for r in rep.layers)
    assert t.total_energy() == pytest.approx(sum(r.total_energy() for r in rep.layers))


def test_csv_report(tmp_path):
    path = tmp_path / "rep.csv"
    sim.write_report_csv(sim.simulate_model(OS, _workload()), str(path))
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["layer_id"] for r in rows] == ["a", "b", "total"]
    assert list(rows[0]) == sim.CSV_COLUMNS
    assert int(rows[2]["cycles"]) == int(rows[0]["cycles"]) + int(rows[1]["cycles"])


def test_json_report_with_manifest(tmp_path):
    path = tmp_path / "rep.json"
    sim.write_report_json(
        sim.simulate_model(WS, _workload()), str(path), manifest={"seed": 1}
    )
    with open(path) as f:
        doc = json.load(f)
    assert doc["dataflow"] == "ws"
    assert doc["manifest"] == {"seed": 1}
    assert {r["layer_id"] for r in doc["layers"]} == {"a", "b"}
    assert doc["totals"]["mac8_ops"] == 128 ** 3
