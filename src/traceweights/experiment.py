"""Transfer evaluation protocol over seeded repetitions.

For every task: run phase 1 once, then for each seed train a fresh
victim model on the large pool, extract its weights matrix from one
trace, and compare four variants on one shared held-out test set:

  small_only  fresh random init, trained on the small set only
  init_only   the extracted matrix decoded, no training at all
  p2w         the extracted matrix decoded, then fine-tuned
  target      the victim itself

Both a balanced and a skewed small-set draw are evaluated per seed.
Everything is derived from the master seed; a rerun writes byte-identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .artifacts import write_json, write_text
from .codec import matrix_to_coefficients
from .datasets import Dataset, gen_synthetic, sample_dsmall, stratified_split
from .metrics import confusion_matrix, accuracy_from_cm, f1_score, overfit_epoch
from .mlp import MlpModel, TrainConfig, check_fits, init_mlp, predict_labels, train_mlp
from .pipeline import (
    PipelineConfig,
    persist_phase1,
    run_phase1,
    run_phase2,
    run_phase3,
)
from .seeding import derive_seed

__all__ = [
    "TARGET_DEFAULTS",
    "ExperimentConfig",
    "evaluate_model",
    "run_experiment",
    "write_report",
]


# the target role's defaults; a config's missing experiment.target keys take these
TARGET_DEFAULTS = TrainConfig(epochs=60, batch_size=64, lr=0.003, dropout=0.3)

# the four variants each seed compares, in summary.csv's column order, and whether
# each is fine-tuned on d_small (then it also records an overfit epoch and curves)
_VARIANTS = (("small_only", True), ("init_only", False), ("p2w", True), ("target", False))
_FINETUNED = tuple(name for name, tuned in _VARIANTS if tuned)
# the per-seed metrics each mode aggregates, in summary.csv's column order
_AGGREGATE_KEYS = tuple(f"{metric}_{name}" for name, _ in _VARIANTS for metric in ("acc", "f1"))
_OVERFIT_RATE_KEYS = tuple(f"overfit_rate_{name}" for name in _FINETUNED)


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: int = 20
    modes: tuple[str, ...] = ("balanced", "imbalanced2x")
    eval_pool_size: int = 3000
    test_frac: float = 0.2
    target: TrainConfig = TARGET_DEFAULTS

    def __post_init__(self):
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not self.modes:
            raise ValueError("need at least one sampling mode")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must be in (0, 1)")


def evaluate_model(model: MlpModel, test: Dataset) -> dict:
    """Accuracy plus F1 (binary for 2 classes, macro otherwise)."""
    check_fits(model.topology, test.d, test.n_classes, f"dataset {test.name!r}")
    cm = confusion_matrix(test.y, predict_labels(model, test.x), test.n_classes)
    avg = "binary" if test.n_classes == 2 else "macro"
    return {"accuracy": accuracy_from_cm(cm), "f1": f1_score(cm, avg)}


def _mean_std(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def _run_task(
    cfg: PipelineConfig,
    exp: ExperimentConfig,
    out_dir: Optional[Path],
    config_digest: str,
    log: Optional[Callable[[str], None]],
    curves: list[dict],
) -> dict:
    phase1 = run_phase1(cfg, log=log)
    if out_dir is not None:
        persist_phase1(out_dir, phase1, config_digest)

    pool = gen_synthetic(
        cfg.task,
        exp.eval_pool_size,
        seed=derive_seed(cfg.master_seed, "eval-pool", cfg.task.name),
    )
    train_pool, test_set = stratified_split(
        pool, exp.test_frac, derive_seed(cfg.master_seed, "test-split", cfg.task.name)
    )

    per_mode: dict = {mode: [] for mode in exp.modes}
    for seed_i in range(1, exp.seeds + 1):
        sm = derive_seed(cfg.master_seed, "exp", cfg.task.name, seed_i)
        target = init_mlp(cfg.topology, derive_seed(sm, "target-init"))
        train_mlp(
            target,
            train_pool.x,
            train_pool.y,
            replace(exp.target, seed=derive_seed(sm, "target-train")),
        )
        matrix = run_phase2(target, phase1.translator, cfg, seed=derive_seed(sm, "phase2-trace"))
        metrics = {
            "init_only": evaluate_model(matrix_to_coefficients(matrix, cfg.topology), test_set),
            "target": evaluate_model(target, test_set),
        }

        for mode in exp.modes:
            d_small = sample_dsmall(
                train_pool,
                cfg.task.dsmall_size,
                mode,
                seed=derive_seed(sm, "dsmall", mode),
            )

            hists = {}
            fresh = init_mlp(cfg.topology, derive_seed(sm, "smallonly-init", mode))
            _, hists["small_only"] = run_phase3(
                matrix, d_small, cfg, seed=derive_seed(sm, "ft-small", mode), model=fresh
            )
            metrics["small_only"] = evaluate_model(fresh, test_set)
            tuned, hists["p2w"] = run_phase3(
                matrix, d_small, cfg, seed=derive_seed(sm, "ft-p2w", mode)
            )
            metrics["p2w"] = evaluate_model(tuned, test_set)

            record = {
                "seed": seed_i,
                "skew_class": (d_small.imbalance or {}).get("skew_class"),
            }
            for name, _ in _VARIANTS:
                record[f"acc_{name}"] = metrics[name]["accuracy"]
                record[f"f1_{name}"] = metrics[name]["f1"]
            for name in _FINETUNED:
                hist = hists[name]
                record[f"overfit_epoch_{name}"] = overfit_epoch(hist.val_acc)
                for epoch, (ta, va) in enumerate(
                    zip(hist.train_acc, hist.val_acc), start=1
                ):
                    curves.append(
                        {
                            "task": cfg.task.name,
                            "seed": seed_i,
                            "mode": mode,
                            "variant": name,
                            "epoch": epoch,
                            "train": ta,
                            "val": va,
                        }
                    )
            per_mode[mode].append(record)
        if log is not None:
            last = per_mode[exp.modes[0]][-1]
            accs = " ".join(f"{name}={last[f'acc_{name}']:.3f}" for name, _ in _VARIANTS)
            log(f"task={cfg.task.name} seed={seed_i} {accs}")

    modes_out = {}
    for mode, records in per_mode.items():
        agg = {key: _mean_std([r[key] for r in records]) for key in _AGGREGATE_KEYS}
        for name, key in zip(_FINETUNED, _OVERFIT_RATE_KEYS):
            agg[key] = float(
                np.mean([r[f"overfit_epoch_{name}"] is not None for r in records])
            )
        modes_out[mode] = {"per_seed": records, "aggregate": agg}

    return {
        "topology": list(cfg.topology),
        "phase1": phase1.summary(),
        "modes": modes_out,
    }


def run_experiment(
    pipelines: list[PipelineConfig],
    exp: ExperimentConfig,
    out_dir=None,
    config_digest: str = "",
    log: Optional[Callable[[str], None]] = None,
) -> dict:
    """Full protocol over every configured task; returns the report dict."""
    out = Path(out_dir) if out_dir is not None else None
    curves: list[dict] = []
    tasks = {}
    for cfg in pipelines:
        task_out = out / cfg.task.name if out is not None else None
        tasks[cfg.task.name] = _run_task(cfg, exp, task_out, config_digest, log, curves)
    report = {
        "config_digest": config_digest,
        "seeds": exp.seeds,
        "modes": list(exp.modes),
        "tasks": tasks,
    }
    if out is not None:
        write_report(out, report, curves)
    return report


def write_report(out_dir, report: dict, curves: list[dict]) -> None:
    """report.json, summary.csv (task x mode aggregates) and curves.csv."""
    out = Path(out_dir)
    write_json(out / "report.json", report)

    lines = ["task,seed,mode,variant,epoch,split,accuracy"]
    for row in curves:
        for split in ("train", "val"):
            lines.append(
                f"{row['task']},{row['seed']},{row['mode']},{row['variant']},"
                f"{row['epoch']},{split},{row[split]!r}"
            )
    write_text(out / "curves.csv", "\n".join(lines) + "\n")

    header = ["task", "mode"]
    for key in _AGGREGATE_KEYS:
        header += [f"{key}_mean", f"{key}_std"]
    header += _OVERFIT_RATE_KEYS
    lines = [",".join(header)]
    for task, tdata in report["tasks"].items():
        for mode, mdata in tdata["modes"].items():
            agg = mdata["aggregate"]
            cells = [task, mode]
            for key in _AGGREGATE_KEYS:
                cells += [repr(agg[key]["mean"]), repr(agg[key]["std"])]
            cells += [repr(agg[key]) for key in _OVERFIT_RATE_KEYS]
            lines.append(",".join(cells))
    write_text(out / "summary.csv", "\n".join(lines) + "\n")
