"""Roofline estimate of LLM prefill cost for full vs. reduced token counts.

Accounting conventions (pinned for reproducibility):

* 1 multiply-accumulate = 2 FLOPs; softmax/normalization FLOPs ignored
  (sub-percent at these sizes).
* Activation memory sums every operator output across all layers at
  FP16 width; KV cache is 2 * n_layers * n_tokens * d_model values.
* INT4 is modeled as a weight byte-width of 0.5 with FP16 activations;
  dequantization overhead is not modeled.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

__all__ = [
    "ModelProfile",
    "HardwareProfile",
    "CostReport",
    "model_preset",
    "hardware_preset",
    "load_model_profile",
    "load_hardware_profile",
    "prefill_flops",
    "memory_footprint",
    "roofline_time",
    "cost_report",
    "cost_comparison",
]

ACTIVATION_BYTES = 2.0  # FP16 activations in all modes


@dataclass(frozen=True)
class ModelProfile:
    name: str
    n_layers: int
    d_model: int
    d_ff: int
    n_vocab: int
    n_params: float
    n_heads: int
    ffn_kind: str  # two_matrix | gated_three_matrix
    bytes_per_param: float = 2.0

    def __post_init__(self):
        if min(self.n_layers, self.d_model, self.d_ff, self.n_vocab, self.n_heads) < 1:
            raise ValueError("model dimensions must be positive")
        if self.n_params <= 0:
            raise ValueError("n_params must be positive")
        if self.ffn_kind not in ("two_matrix", "gated_three_matrix"):
            raise ValueError(f"unknown ffn_kind {self.ffn_kind!r}")
        if self.bytes_per_param not in (0.5, 1, 2, 4):
            raise ValueError("bytes_per_param must be one of 0.5, 1, 2, 4")


@dataclass(frozen=True)
class HardwareProfile:
    name: str
    peak_flops: float  # op/s
    mem_bandwidth: float  # byte/s

    def __post_init__(self):
        if self.peak_flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("hardware rates must be positive")


@dataclass(frozen=True)
class CostReport:
    n_tokens: int
    flops_total: float
    prefill_time_s: float
    total_memory_bytes: float
    activation_bytes: float
    kv_bytes: float
    weight_bytes: float

    def to_dict(self) -> dict:
        return asdict(self)


_MODEL_PRESETS = {
    # LLaMA/Vicuna-family shapes
    "7b": dict(
        n_layers=32, d_model=4096, d_ff=11008, n_vocab=32000,
        n_params=6.74e9, n_heads=32, ffn_kind="gated_three_matrix",
    ),
    "13b": dict(
        n_layers=40, d_model=5120, d_ff=13824, n_vocab=32000,
        n_params=13.0e9, n_heads=40, ffn_kind="gated_three_matrix",
    ),
}

_HW_PRESETS = {
    # V100 SXM2: FP16 tensor peak, HBM2 bandwidth
    "v100": dict(peak_flops=112e12, mem_bandwidth=900e9),
}


def model_preset(name: str, bytes_per_param: float = 2.0) -> ModelProfile:
    try:
        fields = _MODEL_PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown model preset {name!r}") from None
    return ModelProfile(name=name.lower(), bytes_per_param=bytes_per_param, **fields)


def hardware_preset(name: str) -> HardwareProfile:
    try:
        fields = _HW_PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown hardware preset {name!r}") from None
    return HardwareProfile(name=name.lower(), **fields)


def _load_profile(cls, path, **overrides):
    """Build ``cls`` from a flat JSON object; ``name`` defaults to the path."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a profile must be a JSON object")
    data = {"name": str(path), **data, **overrides}
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(data.keys() - known.keys())
    missing = sorted(k for k, f in known.items() if f.default is MISSING and k not in data)
    if unknown or missing:
        raise ValueError(f"{path}: unknown keys {unknown}, missing keys {missing}")
    numeric = [k for k, f in known.items() if f.type in ("int", "float")]
    if any(type(data.get(k, 0)) not in (int, float) for k in numeric):
        raise ValueError(f"{path}: {', '.join(numeric)} must be numbers")
    return cls(**data)


def load_model_profile(path, bytes_per_param: float | None = None) -> ModelProfile:
    """Load a model profile from a flat JSON object.

    Required keys: n_layers, d_model, d_ff, n_vocab, n_params, n_heads,
    ffn_kind. Optional: name, bytes_per_param.
    """
    overrides = {} if bytes_per_param is None else {"bytes_per_param": bytes_per_param}
    return _load_profile(ModelProfile, path, **overrides)


def load_hardware_profile(path) -> HardwareProfile:
    """Load a hardware profile from a flat JSON object with keys
    peak_flops and mem_bandwidth (optional: name)."""
    return _load_profile(HardwareProfile, path)


def _ffn_factor(model: ModelProfile) -> int:
    return 6 if model.ffn_kind == "gated_three_matrix" else 4


def _token_count(name, value) -> int:
    """value as a Python int; a ValueError unless it is a nonnegative
    integer, numpy's included, that is not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return int(value)


def prefill_flops(model: ModelProfile, n_tokens: int) -> float:
    """Total prefill FLOPs for a prompt of n_tokens.

    Per layer: 8*n*d^2 for the QKV and output projections, 4*n^2*d for
    attention scores and values, and 4 or 6 * n*d*d_ff for the FFN;
    plus one final 2*n*d*n_vocab vocabulary projection.
    """
    n, d = float(_token_count("n_tokens", n_tokens)), float(model.d_model)
    per_layer = 8.0 * n * d * d + 4.0 * n * n * d + _ffn_factor(model) * n * d * model.d_ff
    return model.n_layers * per_layer + 2.0 * n * d * model.n_vocab


def memory_footprint(model: ModelProfile, n_tokens: int) -> tuple[float, float, float]:
    """(total_bytes, activation_bytes, kv_bytes) at n_tokens.

    Weights are n_params * bytes_per_param. Activations sum the operator
    outputs of every layer (norms, QKV, attention scores and softmax,
    attention output, projections, FFN intermediates) at FP16 width.
    """
    n, d = float(_token_count("n_tokens", n_tokens)), float(model.d_model)
    weights = model.n_params * model.bytes_per_param
    kv = 2.0 * model.n_layers * n * d * ACTIVATION_BYTES
    # per layer: norm1, q, k, v, attn_out, o_proj, resid1, norm2,
    # ffn_down, resid2 -> 10 n*d tensors; gated FFN: gate, up, act, mul
    # -> 4 n*d_ff (two_matrix: up, act -> 2); scores + softmax -> 2 per head
    ffn_tensors = 4 if model.ffn_kind == "gated_three_matrix" else 2
    per_layer = 10.0 * n * d + ffn_tensors * n * model.d_ff + 2.0 * model.n_heads * n * n
    activation = model.n_layers * per_layer * ACTIVATION_BYTES
    return weights + kv + activation, activation, kv


def roofline_time(flops: float, moved_bytes: float, hw: HardwareProfile) -> float:
    """max(compute-bound, memory-bound) execution time in seconds."""
    if flops < 0 or moved_bytes < 0:
        raise ValueError("flops and moved_bytes must be nonnegative")
    return max(flops / hw.peak_flops, moved_bytes / hw.mem_bandwidth)


def cost_report(model: ModelProfile, hw: HardwareProfile, n_tokens: int) -> CostReport:
    n_tokens = _token_count("n_tokens", n_tokens)
    flops = prefill_flops(model, n_tokens)
    total, activation, kv = memory_footprint(model, n_tokens)
    return CostReport(
        n_tokens=n_tokens,
        flops_total=flops,
        prefill_time_s=roofline_time(flops, total, hw),
        total_memory_bytes=total,
        activation_bytes=activation,
        kv_bytes=kv,
        weight_bytes=model.n_params * model.bytes_per_param,
    )


def cost_comparison(
    model: ModelProfile, hw: HardwareProfile, n_full: int, n_reduced: int
) -> tuple[CostReport, CostReport, dict]:
    """Cost reports at the full and reduced token counts plus savings
    ratios (reduced / full)."""
    n_full, n_reduced = _token_count("n_full", n_full), _token_count("n_reduced", n_reduced)
    if n_full < 1:
        raise ValueError("n_full must be >= 1")
    if n_reduced > n_full:
        raise ValueError("n_reduced must not exceed n_full")
    full = cost_report(model, hw, n_full)
    reduced = cost_report(model, hw, n_reduced)
    savings = {
        "flops_ratio": reduced.flops_total / full.flops_total,
        "memory_ratio": reduced.total_memory_bytes / full.total_memory_bytes,
        "time_ratio": reduced.prefill_time_s / full.prefill_time_s,
        "token_ratio": n_reduced / n_full,
    }
    return full, reduced, savings
