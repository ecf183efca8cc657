"""Simulated power side channel of an MLP inference device.

The device executes one multiply-accumulate per coefficient, layer by
layer, neuron by neuron, weights before bias: trace slot i is the codec
matrix image's non-pad cell i in row-major order.  Every MAC emits
``samples_per_mac`` samples of

    static_power + dynamic_scale * (HW(fix(c)) + HW(fix(v))) + noise

where ``c`` is the coefficient, ``v`` the operand it multiplies (the
previous layer's post-activation value, the raw input for layer one, and
0 for bias slots, which add rather than multiply), ``fix`` the signed
fixed-point encoding, and HW the Hamming weight.  The trace is then
clamped and quantized by an ADC with 2**adc_bits uniform levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .artifacts import read_array, read_json, write_array, write_json
from .codec import coefficients_to_matrix, nonpad_mask
from .mlp import MlpModel, validate_topology
from .nn import relu

__all__ = [
    "DeviceConfig",
    "PowerTrace",
    "fixed_point_code",
    "hamming_weight",
    "total_macs",
    "mac_streams",
    "simulate_trace",
    "quantize_trace",
    "write_trace_container",
    "read_trace_container",
]


@dataclass(frozen=True)
class DeviceConfig:
    adc_bits: int = 12
    adc_lo: float = 0.0
    adc_hi: float = 40.0
    noise_sigma: float = 1.6
    static_power: float = 5.0
    dynamic_scale: float = 1.0
    samples_per_mac: int = 1
    fixed_point_bits: int = 16
    fixed_point_frac_bits: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.adc_bits <= 16:
            raise ValueError(f"adc_bits must be in 1..16, got {self.adc_bits}")
        if self.adc_hi <= self.adc_lo:
            raise ValueError("adc range is empty")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.dynamic_scale <= 0:
            raise ValueError("dynamic_scale must be positive")
        if self.samples_per_mac < 1:
            raise ValueError("samples_per_mac must be >= 1")
        if not 2 <= self.fixed_point_bits <= 64:
            raise ValueError("fixed_point_bits must be in 2..64")
        if not 0 <= self.fixed_point_frac_bits < self.fixed_point_bits:
            raise ValueError("fixed_point_frac_bits must be < fixed_point_bits")


@dataclass
class PowerTrace:
    samples: np.ndarray


def fixed_point_code(values, bits: int, frac_bits: int) -> np.ndarray:
    """Two's-complement codes of values in Q(bits-frac_bits).frac_bits.

    Values are scaled by 2**frac_bits, rounded to nearest, saturated at
    the representable extremes, and reduced mod 2**bits.
    """
    v = np.asarray(values, dtype=np.float64)
    scaled = np.rint(v * float(2**frac_bits))
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    clipped = np.clip(scaled, lo, hi).astype(np.int64)
    return (clipped & ((1 << bits) - 1)).astype(np.uint64)


def hamming_weight(codes) -> np.ndarray:
    return np.bitwise_count(np.asarray(codes, dtype=np.uint64)).astype(np.int64)


def total_macs(topology: Sequence[int]) -> int:
    """One MAC per weight plus one per bias."""
    topo = validate_topology(topology)
    return sum(i * o + o for i, o in zip(topo[:-1], topo[1:]))


def mac_streams(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and operands in trace slot order.

    Slot i is the codec's non-pad cell i in row-major order: both streams
    are laid out in the matrix image and read through ``nonpad_mask``.  A
    row's operands are its layer's input, and its bias cell's is 0.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.shape != (model.topology[0],):
        raise ValueError(
            f"input length {a.shape} does not match topology {model.topology}"
        )
    mask = nonpad_mask(model.topology)
    operands = np.zeros(mask.shape)
    r = 0
    for w, b in zip(model.weights, model.biases):
        fan_in, fan_out = w.shape
        operands[r : r + fan_out, :fan_in] = a
        a = relu(a @ w + b)
        r += fan_out
    return coefficients_to_matrix(model).data[mask], operands[mask]


def simulate_trace(
    model: MlpModel,
    fixed_input,
    cfg: DeviceConfig,
    seed: Optional[int] = None,
) -> PowerTrace:
    """One quantized power trace of inference on ``fixed_input``.

    Sample count is total_macs(topology) * samples_per_mac.  The noise
    seed defaults to cfg.rng_seed; ``pipeline.prepare_pairs`` passes
    derive_seed(master, "phase1", iteration, "device") XOR pair_index,
    so pair order cannot matter.
    """
    coeffs, operands = mac_streams(model, fixed_input)
    hw_c = hamming_weight(
        fixed_point_code(coeffs, cfg.fixed_point_bits, cfg.fixed_point_frac_bits)
    )
    hw_v = hamming_weight(
        fixed_point_code(operands, cfg.fixed_point_bits, cfg.fixed_point_frac_bits)
    )
    level = cfg.static_power + cfg.dynamic_scale * (hw_c + hw_v).astype(np.float64)
    raw = np.repeat(level, cfg.samples_per_mac)
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.rng_seed if seed is None else int(seed))
        raw = raw + rng.normal(0.0, cfg.noise_sigma, size=raw.shape)
    return PowerTrace(quantize_trace(raw, cfg.adc_bits, (cfg.adc_lo, cfg.adc_hi)))


def quantize_trace(trace, bits: int, rng: tuple[float, float]) -> np.ndarray:
    """Clamp to [lo, hi] and snap to the nearest of 2**bits uniform levels."""
    lo, hi = float(rng[0]), float(rng[1])
    if hi <= lo:
        raise ValueError("quantization range is empty")
    if not 1 <= bits <= 16:
        raise ValueError(f"adc bits must be in 1..16, got {bits}")
    x = np.clip(np.asarray(trace, dtype=np.float64), lo, hi)
    n_levels = (1 << bits) - 1
    step = (hi - lo) / n_levels
    return lo + np.rint((x - lo) / step) * step


def write_trace_container(path, traces: np.ndarray, meta: dict) -> None:
    """meta.json plus traces.f32, flat little-endian float32, row-major."""
    d = Path(path)
    arr = np.asarray(traces)
    if arr.ndim != 2:
        raise ValueError(f"traces must be 2-d, got shape {arr.shape}")
    write_array(d / "traces.f32", arr, "<f4")
    count, trace_len = arr.shape
    write_json(d / "meta.json", {**meta, "count": count, "trace_len": trace_len, "dtype": "<f4"})


def read_trace_container(path) -> tuple[np.ndarray, dict]:
    d = Path(path)
    meta = read_json(d / "meta.json")
    shape = (int(meta["count"]), int(meta["trace_len"]))
    return read_array(d / "traces.f32", "<f4", shape), meta
