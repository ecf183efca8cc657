#!/usr/bin/env python3
"""Recoverability bounds for trace->weights decoding at a given parameterization.

Per (epoch mark, frac_bits) prints:
  ceiling_bw   - per-slot decode bound given BOTH operand and coefficient HW
                 (oracle deconfounding), best-window predictor
  ceiling_mean - same conditioning, posterior-mean predictor (what an MSE
                 regressor converges to)
  observed_bw  - conditioned on the actual noise-free sample level HW(c)+HW(v)
  floor_bw     - no trace at all: best-window over each slot's marginal
  acc / spread - surrogate train accuracy and mean per-slot weight std

All bounds fit on one half of the corpus, score on the other half.
--pca adds a reduction-truncation stage at k from the config.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from traceweights.config import load_run_config, shipped_config_path
from traceweights.datasets import chunk, gen_synthetic
from traceweights.device import (
    _mac_streams,
    fixed_point_code,
    hamming_weight,
    simulate_trace,
    total_macs,
)
from traceweights.mlp import init_mlp, model_accuracy, train_mlp
from traceweights.pipeline import make_fixed_input
from traceweights.reduction import pca_fit, pca_transform
from traceweights.seeding import derive_seed


def best_window(values, tau):
    """Center of the tau-window covering the most values; (center, cover_rate)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        return 0.0, 0.0
    best_n, best_c = 1, float(v[0])
    j = 0
    for i in range(v.size):
        while v[i] - v[j] > 2 * tau:
            j += 1
        n = i - j + 1
        if n > best_n:
            best_n = n
            best_c = 0.5 * (float(v[i]) + float(v[j]))
    return best_c, best_n / v.size


def bound_from_keys(keys_fit, w_fit, keys_ev, w_ev, tau, mode):
    """Hit rate on the eval half predicting per (slot, key) group from the fit half."""
    hits = 0
    total = 0
    for s in range(w_fit.shape[1]):
        groups = {}
        for k, w in zip(keys_fit[:, s], w_fit[:, s]):
            groups.setdefault(int(k), []).append(w)
        preds = {}
        for k, vals in groups.items():
            preds[k] = (
                float(np.mean(vals)) if mode == "mean" else best_window(vals, tau)[0]
            )
        fb = (
            float(np.mean(w_fit[:, s]))
            if mode == "mean"
            else best_window(w_fit[:, s], tau)[0]
        )
        for k, w in zip(keys_ev[:, s], w_ev[:, s]):
            hits += abs(w - preds.get(int(k), fb)) <= tau
            total += 1
    return hits / total


def floor_bound(w_fit, w_ev, tau):
    hits = 0
    for s in range(w_fit.shape[1]):
        p, _ = best_window(w_fit[:, s], tau)
        hits += int(np.sum(np.abs(w_ev[:, s] - p) <= tau))
    return hits / w_ev.size


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="desk")
    ap.add_argument("--config")
    ap.add_argument("--task", default=None)
    ap.add_argument("--n", type=int, default=120)
    ap.add_argument("--marks", default="0,10,40")
    ap.add_argument("--frac-bits", default="4")
    ap.add_argument("--tau", type=float, default=0.05)
    ap.add_argument("--lr", type=float, default=None)
    ap.add_argument("--pca", action="store_true")
    args = ap.parse_args()

    path = args.config or shipped_config_path(args.scale)
    run_cfg = load_run_config(path)
    pipes = run_cfg.pipelines
    pipe = pipes[0] if args.task is None else next(
        p for p in pipes if p.task.name == args.task
    )
    topo = pipe.topology
    n_macs = total_macs(topo)
    marks = sorted({int(m) for m in args.marks.split(",")})
    fracs = [int(f) for f in args.frac_bits.split(",")]
    sur = pipe.surrogate
    lr = args.lr if args.lr is not None else sur.lr
    bits = pipe.device.fixed_point_bits

    print(
        f"task={pipe.task.name} topology={topo} slots={n_macs} corpus={args.n} "
        f"lr={lr} bs={sur.batch_size} chunks={pipe.chunks}"
    )

    pool = gen_synthetic(
        pipe.task, pipe.pool_size, derive_seed(pipe.master_seed, "probe", "pool")
    )
    piece = chunk(pool, pipe.chunks)[0]
    fixed = make_fixed_input(topo[0], pipe.master_seed)

    per_mark_w = {m: [] for m in marks}
    per_mark_ops = {m: [] for m in marks}
    per_mark_acc = {m: [] for m in marks}
    models_last = []
    t0 = time.time()
    for i in range(args.n):
        seed = derive_seed(pipe.master_seed, "probe", "sur", i)
        model = init_mlp(topo, seed=seed)
        prev = 0
        for m in marks:
            if m > prev:
                tc = replace(sur, epochs=m - prev, lr=lr, seed=derive_seed(seed, "t", prev))
                train_mlp(model, piece.x, piece.y, tc)
                prev = m
            coeffs, ops = _mac_streams(model, fixed.values)
            per_mark_w[m].append(coeffs)
            per_mark_ops[m].append(ops)
            per_mark_acc[m].append(model_accuracy(model, piece.x, piece.y))
        models_last.append(model)
    print(f"corpus trained in {time.time() - t0:.1f}s")

    half = args.n // 2
    for m in marks:
        W = np.stack(per_mark_w[m])
        OPS = np.stack(per_mark_ops[m])
        acc = float(np.mean(per_mark_acc[m]))
        spread = float(np.mean(np.std(W, axis=0)))
        for frac in fracs:
            hw_w = hamming_weight(fixed_point_code(W, bits, frac))
            hw_o = hamming_weight(fixed_point_code(OPS, bits, frac))
            keys = hw_w.astype(np.int64) * 64 + hw_o.astype(np.int64)
            sums = (hw_w + hw_o).astype(np.int64)
            ceil_bw = bound_from_keys(keys[:half], W[:half], keys[half:], W[half:], args.tau, "bw")
            ceil_mean = bound_from_keys(keys[:half], W[:half], keys[half:], W[half:], args.tau, "mean")
            obs_bw = bound_from_keys(sums[:half], W[:half], sums[half:], W[half:], args.tau, "bw")
            flo = floor_bound(W[:half], W[half:], args.tau)
            print(
                f"mark={m} frac={frac} ceiling_bw={ceil_bw:.3f} ceiling_mean={ceil_mean:.3f} "
                f"observed_bw={obs_bw:.3f} floor_bw={flo:.3f} acc={acc:.3f} spread={spread:.3f}"
            )

    if args.pca:
        m = marks[-1]
        dev = pipe.device
        traces = np.stack(
            [
                simulate_trace(
                    models_last[i], fixed.values, dev,
                    seed=derive_seed(pipe.master_seed, "probe", "trace", i),
                ).samples
                for i in range(args.n)
            ]
        )
        k = min(pipe.pca_k, traces.shape[0] - 1, traces.shape[1])
        pca = pca_fit(traces, k)
        Z = pca_transform(pca, traces)
        recon = Z @ pca.components + pca.mean
        err = traces - recon
        tot = float(np.sum((traces - traces.mean(0)) ** 2))
        retained = 1.0 - float(np.sum(err**2)) / tot if tot else 1.0
        rms = np.sqrt(np.mean(err**2, axis=0))
        # decode from the reconstructed levels alone
        lvl = (recon[:, ::dev.samples_per_mac] - dev.static_power) / dev.dynamic_scale
        keys = np.rint(lvl).astype(np.int64)
        W = np.stack(per_mark_w[m])
        post_bw = bound_from_keys(keys[:half], W[:half], keys[half:], W[half:], args.tau, "bw")
        print(
            f"postpca mark={m} k={k} len={traces.shape[1]} retained={retained:.4f} "
            f"slot_rms_mean={float(np.mean(rms)):.3f} slot_rms_p90={float(np.percentile(rms, 90)):.3f} "
            f"postpca_bw={post_bw:.3f}"
        )


if __name__ == "__main__":
    main()
