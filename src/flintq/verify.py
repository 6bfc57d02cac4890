"""Exhaustive self-checks over the codec and the PE datapath.

The checks read the code tables only through ``NumericType`` and
``quantize``/``dequantize``, the path every command takes.  From ``flint``
they take only the paper's worked-example encoder and ``decode_float``, the
bit-level decoder that does not read ``qtypes``.  These are the same
oracles the test suite runs; the CLI exposes them as a first-class command
so CI and reviewers exercise identical checks.
"""

from __future__ import annotations

import io
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pe, tensor_io
from .flint import FlintCode, decode_float, encode
from .qtypes import (KINDS, MAX_WIDTH, MIN_WIDTH, DecodedPair, NumericType, QuantScheme,
                     dequantize, quantize)

# Value of every 4-bit int, pot and flint code, by code, keyed by kind and signedness.
VALUES4_BY_CODE = {
    "int": {
        False: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        True: [0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1],
    },
    "pot": {
        False: [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384],
        True: [0, 1, 2, 4, 8, 16, 32, 64, 0, -1, -2, -4, -8, -16, -32, -64],
    },
    "flint": {
        False: [0, 1, 2, 3, 4, 5, 6, 7, 64, 32, 16, 24, 8, 10, 12, 14],
        True: [0, 1, 2, 3, 16, 8, 4, 6, 0, -1, -2, -3, -16, -8, -4, -6],
    },
}
# Table of (code, base, exponent) rows for the unsigned 4-bit integer-path decode.
INT_DECODE_ROWS = (
    [(c, c, 0) for c in range(8)]
    + [(0b1100 | m, 8 + 2 * m, 0) for m in range(4)]
    + [(0b1010 | m, 4 + 2 * m, 2) for m in range(2)]
    + [(0b1001, 2, 4), (0b1000, 1, 6)]
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def check_golden_tables() -> CheckResult:
    for kind, by_code in VALUES4_BY_CODE.items():
        for is_signed, want in by_code.items():
            t = NumericType(kind, 4, is_signed)
            pair = t.decoded()
            # Compared as bytes, so a code that decodes to -0.0 fails too.
            if (t.code_values().tobytes() != np.array(want, dtype=np.float64).tobytes()
                    or (pair.base << pair.exponent).tolist() != want):
                return CheckResult("golden-tables", False, f"{t.name} values by code")
    flint4 = NumericType("flint", 4, False).decoded()
    for code, base, exp in INT_DECODE_ROWS:
        got_base, got_exp = flint4.base[code], flint4.exponent[code]
        if (got_base, got_exp) != (base, exp):
            return CheckResult(
                "golden-tables", False,
                f"code {code:04b}: got ({got_base},{got_exp}), want ({base},{exp})",
            )
    return CheckResult("golden-tables", True)


def check_encoder_example() -> CheckResult:
    c = encode(11, 4)
    value = int(NumericType("flint", 4, False).code_values()[c.bits])
    return CheckResult("encoder-example", c.bits == 0b1110 and value == 12,
                       f"encode(11) -> {c.bits:04b} = {value}")


def check_decoder_equivalence() -> CheckResult:
    for b in range(MIN_WIDTH, MAX_WIDTH + 1):
        for signed in (False, True):
            values = NumericType("flint", b, signed).code_values().tolist()
            for bits, value in enumerate(values):
                if decode_float(FlintCode(bits, b, signed)).value != value:
                    return CheckResult(
                        "decoder-equivalence", False,
                        f"width {b} signed={signed} code {bits:0{b}b}",
                    )
    return CheckResult("decoder-equivalence", True)


def check_roundtrip() -> CheckResult:
    """Every grid value of every type, times a scale, quantizes back to itself."""
    for kind in KINDS:
        for b in range(MIN_WIDTH, MAX_WIDTH + 1):
            for signed in (False, True):
                t = NumericType(kind, b, signed)
                grid = t.grid()
                for s in (0.25, 1.0, 3.0):
                    scaled = grid * s
                    got = dequantize(quantize(scaled, QuantScheme(t, np.array([s]))))
                    bad = np.flatnonzero(got != scaled)
                    if bad.size:
                        i = bad[0]
                        return CheckResult(
                            "encode-roundtrip", False,
                            f"{t.name}: {grid[i]} -> {got[i] / s} at scale {s}",
                        )
    return CheckResult("encode-roundtrip", True)


def check_mac_exhaustive() -> CheckResult:
    wide = pe.MacState(acc_width=64, product_width=64)
    for signed in (False, True):
        types = {k: NumericType(k, 4, signed) for k in KINDS}
        vals = {k: types[k].code_values() for k in KINDS}
        decoded = {k: types[k].decoded() for k in KINDS}
        for ka in KINDS:
            # Codes of ``ka`` down the rows, of ``kb`` across: one lane per pair.
            da = DecodedPair(decoded[ka].base[:, None], decoded[ka].exponent[:, None])
            for kb in KINDS:
                # The scale absorbs 2**-(offset_a + offset_b), exact in float64.
                offset = types[ka].exponent_offset + types[kb].exponent_offset
                got = np.ldexp(pe.mac_step(wide, da, decoded[kb]).accumulator, -offset)
                want = vals[ka][:, None] * vals[kb][None, :]
                bad = np.argwhere(got != want)
                if bad.size:
                    ca, cb = bad[0]
                    return CheckResult(
                        "mac-exhaustive", False,
                        f"{ka}x{kb} signed={signed} codes ({ca},{cb}): "
                        f"{got[ca, cb]} != {want[ca, cb]}",
                    )
    return CheckResult("mac-exhaustive", True)


# Rows of ``a`` per array call: 16 x 256 lanes keep the working set small.
MUL8_BLOCK_ROWS = 16


def check_mul8_exhaustive() -> CheckResult:
    for signed in (False, True):
        values = np.arange(-128, 128, dtype=np.int64) if signed else np.arange(256, dtype=np.int64)
        for start in range(0, values.size, MUL8_BLOCK_ROWS):
            a = values[start:start + MUL8_BLOCK_ROWS, None]
            got = pe.mul8_via_four(a, values, signed=signed)
            bad = np.argwhere(got != a * values)
            if bad.size:
                i, j = bad[0]
                return CheckResult(
                    "mul8-exhaustive", False,
                    f"{'signed' if signed else 'unsigned'} {a[i, 0]}*{values[j]}",
                )
    return CheckResult("mul8-exhaustive", True)


def check_serialization_roundtrip() -> CheckResult:
    rng = np.random.default_rng(7)
    t = rng.normal(size=(5, 12))
    with tempfile.TemporaryDirectory() as d:
        tp = os.path.join(d, "t.tensor")
        tensor_io.save_tensor(tp, t, name="check")
        t2 = tensor_io.load_tensor(tp)
        if not np.array_equal(t.astype(np.float32), t2.astype(np.float32)):
            return CheckResult("serialization-roundtrip", False, "tensor payload changed")
        scheme = QuantScheme(NumericType("flint", 4, True), np.array([0.1]))
        q = quantize(t, scheme)
        qp = os.path.join(d, "t.qtensor")
        tensor_io.save_qtensor(qp, q)
        q2 = tensor_io.load_qtensor(qp)
        if not np.array_equal(q.codes, q2.codes) or not np.array_equal(
            dequantize(q), dequantize(q2)
        ):
            return CheckResult("serialization-roundtrip", False, "qtensor changed")
    return CheckResult("serialization-roundtrip", True)


ALL_CHECKS: list[Callable[[], CheckResult]] = [
    check_golden_tables,
    check_encoder_example,
    check_decoder_equivalence,
    check_roundtrip,
    check_mac_exhaustive,
    check_mul8_exhaustive,
    check_serialization_roundtrip,
]


def run_all(out: io.TextIOBase | None = None) -> bool:
    """Run every check; print one ``PASS``/``FAIL`` line each with its wall time."""
    ok = True
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check()
        seconds = time.perf_counter() - start
        ok &= result.ok
        if out is not None:
            status = "PASS" if result.ok else "FAIL"
            suffix = f"  ({result.detail})" if result.detail and not result.ok else ""
            print(f"{status}  {result.name}{suffix}  ({seconds:.3f} s)", file=out)
    return ok
