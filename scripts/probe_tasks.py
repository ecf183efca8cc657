#!/usr/bin/env python3
"""Target-vs-small-only accuracy gap for the shipped task presets.

For each task: train the target config on the large split and the
small-only variant on a d_small sample, both evaluated on a held-out
test set, averaged over seeds.  No traces involved.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from traceweights.config import load_run_config, shipped_config_path
from traceweights.datasets import Dataset, gen_synthetic, sample_dsmall, stratified_split
from traceweights.mlp import init_mlp, model_accuracy, train_mlp
from traceweights.seeding import derive_seed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="desk")
    ap.add_argument("--config")
    ap.add_argument("--seeds", type=int, default=8)
    ap.add_argument("--sep", type=float, default=None)
    ap.add_argument("--spread", type=float, default=None)
    args = ap.parse_args()

    run_cfg = load_run_config(args.config or shipped_config_path(args.scale))
    exp = run_cfg.experiment
    for pipe in run_cfg.pipelines:
        task = pipe.task
        if args.sep is not None:
            task = type(task)(**{**task.__dict__, "separation": args.sep})
        if args.spread is not None:
            task = type(task)(**{**task.__dict__, "cluster_spread": args.spread})
        t_acc, s_acc = [], []
        for s in range(args.seeds):
            seed = derive_seed(pipe.master_seed, "probe-task", task.name, s)
            pool = gen_synthetic(task, exp.eval_pool_size, seed)
            n_test = int(round(exp.eval_pool_size * exp.test_frac))
            test_x, test_y = pool.x[:n_test], pool.y[:n_test]
            big_x, big_y = pool.x[n_test:], pool.y[n_test:]

            tgt = init_mlp(pipe.topology, seed=derive_seed(seed, "tgt"))
            train_mlp(tgt, big_x, big_y, replace(exp.target, seed=derive_seed(seed, "tgt-t")))
            t_acc.append(model_accuracy(tgt, test_x, test_y))

            rest = Dataset(x=big_x, y=big_y, n_classes=task.n_classes, name=task.name)
            dsm = sample_dsmall(rest, task.dsmall_size, "balanced", derive_seed(seed, "dsm"))
            tr, va = stratified_split(dsm, pipe.finetune.val_frac, derive_seed(seed, "sp"))
            small = init_mlp(pipe.topology, seed=derive_seed(seed, "small"))
            train_mlp(
                small, tr.x, tr.y,
                pipe.finetune.train_config(derive_seed(seed, "small-t")),
                val=(va.x, va.y),
            )
            s_acc.append(model_accuracy(small, test_x, test_y))
        print(
            f"task={task.name} sep={task.separation} spread={task.cluster_spread} "
            f"k={task.clusters_per_class} dsmall={task.dsmall_size} "
            f"target={np.mean(t_acc):.3f}+-{np.std(t_acc):.3f} "
            f"small_only={np.mean(s_acc):.3f}+-{np.std(s_acc):.3f}"
        )


if __name__ == "__main__":
    main()
