"""flintq: adaptive low-bit numeric types, post-training quantization, and
an analytic systolic-array performance model."""

__version__ = "0.1.0"

from .flint import FlintCode, FloatFields  # noqa: F401
from .qtypes import (  # noqa: F401
    DecodedPair,
    NumericType,
    QTensor,
    QuantScheme,
    dequantize,
    fake_quantize,
    mse,
    quantize,
)
from .selector import (  # noqa: F401
    LayerTensors,
    PrecisionPlan,
    SelectionResult,
    argmin_mse_scale,
    plan_mixed_precision,
    select_type,
)
