#!/usr/bin/env python3
"""Per-layer forward/backward timings of the desk EDNN; writes BENCH_ednn_layers.json.

    python3 scripts/bench_ednn_layers.py --out BENCH_ednn_layers.json

Builds the desk-width EDNN the ``translator`` benchmark trains (256 PCA
features in, a 41x20 matrix out), then runs ``--repeats`` training
forward+backward passes on one fixed batch of ``--batch`` random inputs.
Each pass feeds every layer what the layer before it returned, as
``EdnnModel.forward``/``backward`` do (inputs and targets in the model's
dtype, and only the parameter gradients of the first layer), and times
each parametric layer's forward and backward alone.  The ReLU, Dropout
and reshape layers are timed together as ``elementwise``.  BLAS is pinned to one thread before
NumPy loads.  The JSON holds the median seconds per layer, beside them
the first and third quartiles (``*_quartiles_s``) so a reader can see
how far the repeats spread, and the GFLOP/s the medians give, counting
a multiply-add as 2 FLOPs and a backward as twice its forward (the
first Dense's backward, which skips the input gradient, as its forward),
and the parameters' ``dtype``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from traceweights.ednn import build_ednn  # noqa: E402
from traceweights.nn import Conv1D, ConvTranspose1D, Dense  # noqa: E402

LABELS = ("dense_in", "conv1", "conv2", "conv3", "deconv1", "deconv2", "dense_out")
INPUT_LEN = 256
OUTPUT_SHAPE = (41, 20)


def forward_flops(layer, x_shape):
    """FLOPs of one forward pass on an input of ``x_shape``, bias adds included."""
    n = x_shape[0]
    if isinstance(layer, Dense):
        fan_in, fan_out = layer.w.shape
        return 2 * n * fan_in * fan_out + n * fan_out
    _, c_in, length = x_shape
    k = layer.kernel
    if isinstance(layer, Conv1D):
        c_out = layer.w.shape[0]
        l_out = Conv1D.out_len(length, k, layer.stride)
        return 2 * n * c_out * c_in * k * l_out + n * c_out * l_out
    c_out = layer.w.shape[1]
    l_out = ConvTranspose1D.out_len(length, k, layer.stride)
    return 2 * n * c_in * c_out * k * length + n * c_out * l_out


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(values):
    """First and third quartile of the repeats."""
    q1, _, q3 = quantiles(values, n=4)
    return [q1, q3]


def ms(mid, quarts):
    """A median and its quartiles, in milliseconds."""
    return f"{mid * 1e3:8.2f} [{quarts[0] * 1e3:.2f}-{quarts[1] * 1e3:.2f}]"


def one_pass(model, x, y, rng, times):
    """One training forward+backward; appends each layer's seconds to ``times``."""
    parametric = iter(LABELS)
    labels = [next(parametric) if isinstance(layer, (Dense, Conv1D, ConvTranspose1D))
              else "elementwise" for layer in model.layers]
    shapes = {}
    a = x
    for label, layer in zip(labels, model.layers):
        shapes.setdefault(label, a.shape)
        t0 = perf_counter()
        a = layer.forward(a, train=True, rng=rng)
        times[label]["fwd"][-1] += perf_counter() - t0
    d = (2.0 / len(x)) * (a - y)
    for i, (label, layer) in reversed(list(enumerate(zip(labels, model.layers)))):
        t0 = perf_counter()
        if i:
            d = layer.backward(d)
        else:  # as nn.backprop: nothing reads the first layer's input gradient
            layer.backward_params(d)
        times[label]["bwd"][-1] += perf_counter() - t0
    return shapes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_ednn_layers.json"))
    ap.add_argument("--batch", type=int, default=100)
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--warmup", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.repeats < 2:
        ap.error("--repeats must be at least 2 to give quartiles")

    data = np.random.default_rng(args.seed)
    model = build_ednn(INPUT_LEN, OUTPUT_SHAPE, "desk", seed=args.seed)
    dtype = model.flat.dtype
    x = data.normal(size=(args.batch, INPUT_LEN)).astype(dtype)
    y = data.uniform(-1.0, 1.0, size=(args.batch,) + OUTPUT_SHAPE).astype(dtype)
    rng = np.random.default_rng(args.seed + 1)
    times = {label: {"fwd": [], "bwd": []} for label in LABELS + ("elementwise",)}
    totals = []
    for i in range(args.warmup + args.repeats):
        for t in times.values():
            t["fwd"].append(0.0)
            t["bwd"].append(0.0)
        t0 = perf_counter()
        shapes = one_pass(model, x, y, rng, times)
        totals.append(perf_counter() - t0)
    keep = slice(args.warmup, None)

    layers = {}
    for label, layer in zip(LABELS, [ly for ly in model.layers
                                     if isinstance(ly, (Dense, Conv1D, ConvTranspose1D))]):
        flops = forward_flops(layer, shapes[label])
        fwd = median(times[label]["fwd"][keep])
        bwd = median(times[label]["bwd"][keep])
        layers[label] = {
            "input_shape": list(shapes[label]),
            "fwd_s": fwd,
            "bwd_s": bwd,
            "fwd_quartiles_s": quartiles(times[label]["fwd"][keep]),
            "bwd_quartiles_s": quartiles(times[label]["bwd"][keep]),
            "fwd_gflops_per_s": flops / fwd / 1e9,
            "bwd_gflops_per_s": (flops if label == "dense_in" else 2 * flops) / bwd / 1e9,
            "flops_fwd": flops,
        }
    report = {
        "what": "desk EDNN per-layer training forward/backward, seconds per batch: "
                "median and first/third quartiles over the repeats",
        "batch": args.batch,
        "dtype": str(dtype),
        "input_len": INPUT_LEN,
        "output_shape": list(OUTPUT_SHAPE),
        "seed": args.seed,
        "repeats": args.repeats,
        "warmup": args.warmup,
        "blas_threads": 1,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpu_count": os.cpu_count(),
        "layers": layers,
        "elementwise_fwd_s": median(times["elementwise"]["fwd"][keep]),
        "elementwise_bwd_s": median(times["elementwise"]["bwd"][keep]),
        "elementwise_fwd_quartiles_s": quartiles(times["elementwise"]["fwd"][keep]),
        "elementwise_bwd_quartiles_s": quartiles(times["elementwise"]["bwd"][keep]),
        "pass_s": median(totals[keep]),
        "pass_quartiles_s": quartiles(totals[keep]),
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("median ms [first-third quartile ms]")
    for label, row in layers.items():
        print(f"{label:10s} fwd {ms(row['fwd_s'], row['fwd_quartiles_s'])}"
              f" {row['fwd_gflops_per_s']:6.1f} GF/s"
              f"   bwd {ms(row['bwd_s'], row['bwd_quartiles_s'])}"
              f" {row['bwd_gflops_per_s']:6.1f} GF/s")
    ew = {d: ms(report[f"elementwise_{d}_s"], report[f"elementwise_{d}_quartiles_s"])
          for d in ("fwd", "bwd")}
    print(f"elementwise fwd {ew['fwd']}   bwd {ew['bwd']}")
    print(f"pass {ms(report['pass_s'], report['pass_quartiles_s'])}  -> {args.out}")


if __name__ == "__main__":
    main()
