"""The benchmark workloads, built on the package's public API.

Each workload derives every input from the benchmark seed in ``setup``,
runs one round of work in ``run_round`` (the only timed code) and checks
that round's outputs in ``check``.  A round is one call of the layer the
workload exists for:

  translator    PCA + standardize + ``ednn.train_ednn``; an op is one epoch
  transfer      ``experiment.run_experiment``; an op is one
                (task, seed, mode) comparison

``check`` returns a digest of the round's outputs; rounds of one run
have identical inputs, so the runner fails a round whose digest differs
from the first round's.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from traceweights import (
    codec, config, datasets, device, ednn, experiment, mlp, reduction,
)
from traceweights.seeding import derive_seed

# Validation accuracy is at most 1, so this keeps every outer loop running
# its full, fixed amount of work.
_UNREACHABLE_THETA = 2.0

# Budgets that differ from the shipped desk config.  "tiny" is for the
# smoke test only; "desk" is what BENCHMARK.json measures.
SIZES = {
    "desk": {
        "translator": {"pairs": 300, "train": 200, "val": 50, "pca_k": 256, "epochs": 2},
        "transfer": {"reps": 17, "pca_k": 16, "chunks": 1, "seeds": 1, "eval_pool": 3000,
                     "target_epochs": 60, "finetune_epochs": 80},
    },
    "tiny": {
        "translator": {"pairs": 250, "train": 200, "val": 50, "pca_k": 16, "epochs": 2},
        "transfer": {"reps": 17, "pca_k": 16, "chunks": 1, "seeds": 1, "eval_pool": 300,
                     "target_epochs": 2, "finetune_epochs": 3},
    },
}


@dataclass
class Check:
    ops: int
    failed: int
    accuracy: float
    digest: str
    notes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # per-layer totals measured outside spans
    shown: dict = field(default_factory=dict)   # printed for reading, not reported


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _desk_run_config(workdir: Path, seed: int, edit) -> config.RunConfig:
    """The shipped desk config with ``edit`` applied, loaded through its validator."""
    raw = json.loads(config.shipped_config_path("desk").read_text())
    raw["master_seed"] = seed
    raw["phase1"]["theta"] = _UNREACHABLE_THETA
    edit(raw)
    path = workdir / "config.json"
    path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    return config.load_run_config(path)


class Workload:
    """Subclasses define ``setup()``, ``run_round()`` and ``check(out) -> Check``."""

    name = ""
    op = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.workdir = workdir


class Translator(Workload):
    """PCA, standardize and EDNN training on pairs from untrained surrogates."""

    name = "translator"
    op = "epoch"
    topology = (19, 16, 8, 8, 8, 1)  # desk binary-wide

    def setup(self):
        s = self.size
        dev = _desk_run_config(self.workdir, self.seed, lambda raw: None).device
        rng = np.random.default_rng(derive_seed(self.seed, "translator", "fixed-input"))
        fixed = rng.random(self.topology[0])
        traces, matrices = [], []
        for i in range(s["pairs"]):
            model = mlp.init_mlp(self.topology, derive_seed(self.seed, "translator", "init", i))
            trace = device.simulate_trace(
                model, fixed, dev, seed=derive_seed(self.seed, "translator", "device", i))
            traces.append(trace.samples)
            matrices.append(codec.coefficients_to_matrix(model).data)
        # the float32 values the pipeline's containers would store
        self.traces = np.asarray(traces, dtype=np.float32).astype(np.float64)
        self.matrices = np.asarray(matrices, dtype=np.float32).astype(np.float64)
        self.mask = codec.nonpad_mask(self.topology)

    def run_round(self):
        s = self.size
        pca = reduction.pca_fit(self.traces, s["pca_k"])
        scaler = reduction.Standardizer.fit(reduction.pca_transform(pca, self.traces))
        x = scaler.apply(reduction.pca_transform(pca, self.traces))
        model = ednn.build_ednn(s["pca_k"], self.matrices.shape[1:], "desk",
                                seed=derive_seed(self.seed, "translator", "ednn-init"))
        n, v = s["train"], s["train"] + s["val"]
        hist = ednn.train_ednn(
            model, x[:n], self.matrices[:n],
            ednn.EdnnTrainConfig(epochs=s["epochs"], batch_size=100, lr=0.001, tau=0.05,
                                 seed=derive_seed(self.seed, "translator", "ednn-train")),
            theta=_UNREACHABLE_THETA,
            val=(x[n:v], self.matrices[n:v]),
            mask=self.mask,
        )
        return hist, model

    def check(self, out) -> Check:
        hist, model = out
        losses = hist.train_loss
        notes = []
        if not all(math.isfinite(v) for v in losses + hist.val_accuracy):
            notes.append("non-finite loss or accuracy")
        if len(losses) < 2 or not losses[-1] < losses[0]:
            notes.append(f"loss did not fall: {losses}")
        return Check(
            ops=hist.epochs_run, failed=hist.epochs_run if notes else 0,
            digest=_sha256(model.param_vector()),
            notes=notes, accuracy=hist.val_accuracy[-1],
        )


_AGGREGATE_KEYS = (
    "acc_small_only", "f1_small_only", "acc_init_only", "f1_init_only",
    "acc_p2w", "f1_p2w", "acc_target", "f1_target",
)
_RECORD_KEYS = (*_AGGREGATE_KEYS, "seed", "overfit_epoch_small_only", "overfit_epoch_p2w",
                "skew_class")
# the trained variants, so a faster run that trains worse shows
_GUARD_KEYS = ("acc_target", "acc_small_only", "acc_p2w")


class Transfer(Workload):
    """Multi-seed run_experiment over the three desk tasks, artifacts included."""

    name = "transfer"
    op = "comparison"

    def setup(self):
        s = self.size

        def edit(raw):
            raw["phase1"].update(reps=s["reps"], pca_k=s["pca_k"], chunks=s["chunks"])
            raw["phase1"]["surrogate"]["epochs"] = 2
            raw["phase1"]["ednn"]["epochs"] = 1
            raw["finetune"]["epochs_max"] = s["finetune_epochs"]
            raw["experiment"].update(seeds=s["seeds"], eval_pool_size=s["eval_pool"])
            raw["experiment"]["target"]["epochs"] = s["target_epochs"]

        self.run_cfg = _desk_run_config(self.workdir, self.seed, edit)
        # warm-up: generate every task's pool and small sets the way a round does
        exp = self.run_cfg.experiment
        for cfg in self.run_cfg.pipelines:
            pool = datasets.gen_synthetic(cfg.task, exp.eval_pool_size,
                                          seed=derive_seed(self.seed, "warm-up", cfg.task.name))
            small = [datasets.sample_dsmall(pool, cfg.task.dsmall_size, mode,
                                            seed=derive_seed(self.seed, "warm-up", mode))
                     for mode in exp.modes]
        # then one fine-tune at the desk budget on the last task's first draw
        model = mlp.init_mlp(cfg.topology, derive_seed(self.seed, "warm-up", "init"))
        mlp.train_mlp(model, small[0].x, small[0].y, mlp.TrainConfig(
            epochs=cfg.finetune.epochs_max, batch_size=cfg.finetune.batch_size,
            lr=cfg.finetune.lr, dropout=cfg.finetune.dropout))

    def run_round(self):
        out = Path(tempfile.mkdtemp(prefix="transfer-", dir=self.workdir))
        rc = self.run_cfg
        report = experiment.run_experiment(
            rc.pipelines, rc.experiment, out_dir=out, config_digest=rc.digest)
        return report, out

    def check(self, out) -> Check:
        report, out_dir = out
        try:
            raw = (out_dir / "report.json").read_bytes()
            written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        finally:
            shutil.rmtree(out_dir)
        on_disk = json.loads(raw)
        rc = self.run_cfg
        modes = list(rc.experiment.modes)
        notes = []
        if on_disk != json.loads(json.dumps(report)):
            notes.append("report.json differs from the returned report")
        if on_disk.get("modes") != modes or on_disk.get("seeds") != rc.experiment.seeds:
            notes.append("report header does not match the config")
        ops = failed = 0
        guard, p2w = [], []
        for cfg in rc.pipelines:
            task = on_disk.get("tasks", {}).get(cfg.task.name, {})
            if not {"reached_theta", "final_val_accuracy", "test_accuracy",
                    "iterations"} <= set(task.get("phase1", {})):
                notes.append(f"{cfg.task.name}: phase1 block incomplete")
            for mode in modes:
                block = task.get("modes", {}).get(mode, {})
                agg = block.get("aggregate", {})
                agg_ok = all(
                    k in agg and math.isfinite(agg[k]["mean"]) and math.isfinite(agg[k]["std"])
                    for k in _AGGREGATE_KEYS
                ) and {"overfit_rate_small_only", "overfit_rate_p2w"} <= set(agg)
                if not agg_ok:
                    notes.append(f"{cfg.task.name}/{mode}: aggregate incomplete")
                records = block.get("per_seed", [])
                for i in range(rc.experiment.seeds):
                    ops += 1
                    rec = records[i] if i < len(records) else {}
                    ok = agg_ok and set(_RECORD_KEYS) <= set(rec) and all(
                        math.isfinite(rec[k]) for k in _AGGREGATE_KEYS)
                    failed += not ok
                if agg_ok:
                    guard += [agg[k]["mean"] for k in _GUARD_KEYS]
                    p2w.append(agg["acc_p2w"]["mean"])
        if notes:
            failed = ops
        return Check(
            ops=ops, failed=failed, digest=hashlib.sha256(raw).hexdigest(), notes=notes,
            accuracy=float(np.mean(guard)) if guard else 0.0,
            counts={"experiment.bytes_written": written},
            shown={"p2w_acc": float(np.mean(p2w)) if p2w else 0.0},
        )


WORKLOADS = {w.name: w for w in (Translator, Transfer)}
