"""Analytic latency/energy model for an n x n systolic array of 4-bit PEs.

Closed-form tile models, not cycle-by-cycle simulation: each layer is a
GEMM (M x K times K x N) tiled over the array, with fill/drain (output
stationary) or preload (weight stationary) charged per tile.  8-bit layers
run on an effective (n/2) x (n/2) array built by ganging four 4-bit PEs.

Energy is events times per-event costs.  The default cost table is a
placeholder configuration (no published coefficients exist); all useful
conclusions from this model are ratios between runs, never absolute units.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields


class SimConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EnergyTable:
    """Per-event energy costs in arbitrary units. Defaults are placeholders."""

    dram_per_bit: float = 20.0
    sram_per_bit: float = 1.0
    mac4: float = 1.0
    mac8: float = 4.0
    decode: float = 0.1
    static_per_cycle: float = 50.0


@dataclass(frozen=True)
class ArrayConfig:
    n: int = 64  # 64x64 = 4096 PEs
    buffer_bytes: int = 512 * 1024
    dataflow: str = "os"  # os | ws
    dram_bandwidth_bits: float = 256.0  # bits per cycle
    energy: EnergyTable = field(default_factory=EnergyTable)

    def __post_init__(self):
        if self.n < 1 or self.n % 2:
            raise SimConfigError(f"array dimension must be positive and even, got {self.n}")
        if self.dataflow not in ("os", "ws"):
            raise SimConfigError(f"dataflow must be 'os' or 'ws', got {self.dataflow!r}")
        if self.dram_bandwidth_bits <= 0 or self.buffer_bytes <= 0:
            raise SimConfigError("bandwidth and buffer size must be positive")
        for name, cost in asdict(self.energy).items():
            if cost < 0:
                raise SimConfigError(f"energy cost {name} must be >= 0")

    @staticmethod
    def from_json(d: dict) -> "ArrayConfig":
        energy = EnergyTable(**d.get("energy", {}))
        kwargs = {k: v for k, v in d.items() if k != "energy"}
        return ArrayConfig(energy=energy, **kwargs)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GemmLayer:
    layer_id: str
    m: int
    n: int
    k: int
    width: int = 4  # 4 or 8

    def __post_init__(self):
        if min(self.m, self.n, self.k) < 0:
            raise SimConfigError(f"{self.layer_id}: negative GEMM dimension")
        if self.width not in (4, 8):
            raise SimConfigError(f"{self.layer_id}: width must be 4 or 8, got {self.width}")


@dataclass
class GemmWorkload:
    layers: list[GemmLayer]


@dataclass
class LayerReport:
    layer_id: str
    cycles: int = 0
    compute_cycles: int = 0
    overhead_cycles: int = 0  # fill/drain or preload
    bandwidth_bound: bool = False
    dram_bits: int = 0
    dram_bits_weight: int = 0
    dram_bits_act: int = 0
    dram_bits_out: int = 0
    sram_bits: int = 0
    mac4_ops: int = 0
    mac8_ops: int = 0
    decode_events: int = 0
    encode_events: int = 0
    energy: dict = field(default_factory=dict)

    def total_energy(self) -> float:
        """The components summed left to right: the built-in ``sum``
        compensates its rounding from Python 3.12 on."""
        total = 0.0
        for cost in self.energy.values():
            total += cost
        return total


# The report columns that are LayerReport fields, and its integer event
# counts, which the totals sum.
_FIELD_COLUMNS = tuple(f.name for f in fields(LayerReport) if f.name != "energy")
_COUNTERS = tuple(f.name for f in fields(LayerReport) if type(f.default) is int)
# Energy components, in the order the reports list them.
ENERGY_KEYS = ("static", "dram", "buffer", "core")


@dataclass
class SimReport:
    dataflow: str
    layers: list[LayerReport]

    def totals(self) -> LayerReport:
        total = LayerReport("total", **{k: sum(getattr(r, k) for r in self.layers) for k in _COUNTERS})
        for r in self.layers:
            for k, v in r.energy.items():
                total.energy[k] = total.energy.get(k, 0.0) + v
        return total


# Outputs leave the array at high precision.
OUT_BYTES_PER_ELEMENT = 2


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_tile_fits(cfg: ArrayConfig, layer: GemmLayer, eff: int) -> None:
    # Working set of one tile step: double-buffered input panels of depth
    # eff plus the high-precision output tile.
    in_bits = layer.width
    panel_bytes = 2 * eff * eff * in_bits / 8  # A panel chunk + B panel chunk
    tile_bytes = 2 * panel_bytes + eff * eff * OUT_BYTES_PER_ELEMENT
    if tile_bytes > cfg.buffer_bytes:
        raise SimConfigError(
            f"{layer.layer_id}: tile working set {tile_bytes:.0f} B exceeds "
            f"buffer {cfg.buffer_bytes} B (effective array {eff}x{eff})"
        )


def simulate_layer(cfg: ArrayConfig, layer: GemmLayer) -> LayerReport:
    rep = LayerReport(layer.layer_id)
    if layer.m == 0 or layer.n == 0 or layer.k == 0:
        rep.energy = dict.fromkeys(ENERGY_KEYS, 0.0)
        return rep

    eff = cfg.n if layer.width == 4 else cfg.n // 2
    _check_tile_fits(cfg, layer, eff)
    in_bits = layer.width
    out_bits = OUT_BYTES_PER_ELEMENT * 8
    tm, tn, tk = (_ceil_div(layer.m, eff), _ceil_div(layer.n, eff), _ceil_div(layer.k, eff))

    a_reload = 1 if layer.m * layer.k * in_bits // 8 <= cfg.buffer_bytes // 2 else tn
    # decode_events counts the operand elements streamed into the array: each
    # is decoded once on the way in and read once from the buffer.
    if cfg.dataflow == "os":
        rep.compute_cycles = tm * tn * layer.k
        rep.overhead_cycles = tm * tn * 2 * eff  # fill + drain per tile
        # A panel re-streamed per N-tile column, B panel per M-tile row.
        rep.decode_events = tm * tn * 2 * eff * layer.k
        rep.sram_bits = rep.decode_events * in_bits + layer.m * layer.n * out_bits
        w_reload = 1 if layer.k * layer.n * in_bits // 8 <= cfg.buffer_bytes // 2 else tm
    else:
        rep.compute_cycles = tk * tn * layer.m
        rep.overhead_cycles = tk * tn * eff  # weight preload per tile
        # Partial sums spill to the buffer between K tiles at high precision.
        partial_traffic = (2 * tk - 1) * layer.m * layer.n * out_bits
        rep.decode_events = tk * tn * (eff * eff + eff * layer.m)
        rep.sram_bits = rep.decode_events * in_bits + partial_traffic
        w_reload = 1  # weights are stationary: fetched from DRAM once

    rep.dram_bits_weight = w_reload * layer.k * layer.n * in_bits
    rep.dram_bits_act = a_reload * layer.m * layer.k * in_bits
    rep.dram_bits_out = layer.m * layer.n * out_bits
    rep.dram_bits = rep.dram_bits_weight + rep.dram_bits_act + rep.dram_bits_out
    core_cycles = rep.compute_cycles + rep.overhead_cycles
    dram_cycles = rep.dram_bits / cfg.dram_bandwidth_bits
    if not math.isfinite(dram_cycles):
        raise SimConfigError(f"{layer.layer_id}: DRAM cycles overflow at "
                             f"{cfg.dram_bandwidth_bits} bit/cycle")
    dram_cycles = math.ceil(dram_cycles)
    rep.cycles = max(core_cycles, dram_cycles)
    rep.bandwidth_bound = dram_cycles > core_cycles

    macs = layer.m * layer.n * layer.k
    if layer.width == 4:
        rep.mac4_ops = macs
    else:
        rep.mac8_ops = macs
    rep.encode_events = layer.m * layer.n  # output re-quantization on the way out

    e = cfg.energy
    rep.energy = {
        "static": e.static_per_cycle * rep.cycles,
        "dram": e.dram_per_bit * rep.dram_bits,
        "buffer": e.sram_per_bit * rep.sram_bits,
        "core": (
            e.mac4 * rep.mac4_ops
            + e.mac8 * rep.mac8_ops
            + e.decode * (rep.decode_events + rep.encode_events)
        ),
    }
    return rep


def simulate_model(cfg: ArrayConfig, workload: GemmWorkload) -> SimReport:
    return SimReport(cfg.dataflow, [simulate_layer(cfg, l) for l in workload.layers])


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

CSV_COLUMNS = [*_FIELD_COLUMNS, *(f"energy_{k}" for k in ENERGY_KEYS), "energy_total"]


def _row(r: LayerReport) -> dict:
    row = {name: getattr(r, name) for name in _FIELD_COLUMNS}
    row["bandwidth_bound"] = int(r.bandwidth_bound)
    for k in ENERGY_KEYS:
        row[f"energy_{k}"] = r.energy.get(k, 0.0)
    row["energy_total"] = r.total_energy()
    return row


def report_to_json(report: SimReport, manifest: dict | None = None) -> dict:
    doc = {
        "dataflow": report.dataflow,
        "layers": [_row(r) for r in report.layers],
        "totals": _row(report.totals()),
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return doc


def write_report_csv(report: SimReport, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in report.layers:
            writer.writerow(_row(r))
        writer.writerow(_row(report.totals()))


def write_report_json(report: SimReport, path: str, manifest: dict | None = None) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(report_to_json(report, manifest), indent=2, sort_keys=True) + "\n")
