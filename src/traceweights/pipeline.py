"""Three-phase weight recovery pipeline.

Phase 1 builds the trace-to-matrix translator: surrogate models are
trained on growing subsets of a chunked attacker dataset, each deployed
to the simulated device to capture one trace, and the resulting pairs
train the encoder-decoder until its validation recovery accuracy clears
theta or the chunks run out.  Phase 2 captures one trace of the victim
model and translates it into a weights matrix.  Phase 3 decodes the
matrix into a model and fine-tunes it on the small target dataset.

Pair generation is restarted from scratch with fresh derived seeds on
every outer iteration; nothing is cached between iterations except the
encoder-decoder parameters, which warm-start each retraining (optimizer
moments start fresh).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .artifacts import read_array, read_json, write_array, write_json
from .codec import (
    WeightsMatrix,
    coefficients_to_matrix,
    matrix_shape,
    matrix_to_coefficients,
    nonpad_mask,
)
from .datasets import Dataset, TaskSpec, chunk, gen_synthetic, stratified_split
from .device import DeviceConfig, simulate_trace, write_trace_container
from .ednn import (
    EdnnHistory,
    EdnnModel,
    EdnnTrainConfig,
    build_ednn,
    ednn_accuracy,
    ednn_from_vector,
    predict_weights,
    train_ednn,
)
from .mlp import (
    MlpModel,
    TrainConfig,
    TrainHistory,
    check_fits,
    init_mlp,
    train_mlp,
    train_mlp_stack,
    validate_topology,
)
from .reduction import PcaModel, Standardizer, pca_fit, pca_transform
from .seeding import derive_seed, digest_of

__all__ = [
    "SURROGATE_DEFAULTS",
    "FinetuneConfig",
    "PipelineConfig",
    "FixedInput",
    "TracePairs",
    "Translator",
    "Phase1Result",
    "make_fixed_input",
    "attacker_data",
    "prepare_pairs",
    "split_counts",
    "run_phase1",
    "run_phase2",
    "run_phase3",
    "translate_trace",
    "persist_phase1",
    "write_fixed_input",
    "write_pairs",
]


# the surrogate role's defaults; a config's missing phase1.surrogate keys take these
SURROGATE_DEFAULTS = TrainConfig(epochs=150, batch_size=16, lr=0.003, dropout=0.3)


@dataclass(frozen=True)
class FinetuneConfig:
    epochs_max: int = 80
    batch_size: int = 16
    lr: float = 0.005
    dropout: float = 0.3
    early_stop_patience: int = 10
    lr_halve_after: int = 5
    val_frac: float = 0.2
    restore_best: bool = True

    def __post_init__(self):
        if self.epochs_max < 0:
            raise ValueError(f"epochs_max must be >= 0 (0 = no fine-tune), got {self.epochs_max!r}")
        if not 0 < self.val_frac < 1:
            raise ValueError(f"val_frac must be in (0, 1), got {self.val_frac!r}")
        self.train_config(0)  # the rules every TrainConfig checks

    def train_config(self, seed: int) -> TrainConfig:
        """One fine-tune run's training settings; ``val_frac`` sets its split.

        ``epochs_max`` 0 runs no fine-tune at all, so it checks as one epoch.
        """
        return TrainConfig(
            epochs=max(self.epochs_max, 1),
            batch_size=self.batch_size,
            lr=self.lr,
            dropout=self.dropout,
            seed=seed,
            early_stop_patience=self.early_stop_patience,
            lr_halve_after=self.lr_halve_after,
            restore_best=self.restore_best,
        )


@dataclass
class PipelineConfig:
    task: TaskSpec
    topology: tuple[int, ...]
    device: DeviceConfig
    master_seed: int
    scale: str = "desk"
    chunks: int = 2
    reps: int = 300
    pool_size: int = 600
    pca_k: int = 256
    theta: float = 0.85
    splits: tuple[float, float, float] = (0.75, 0.20, 0.05)
    surrogate: TrainConfig = SURROGATE_DEFAULTS
    ednn: EdnnTrainConfig = field(default_factory=EdnnTrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)

    def __post_init__(self):
        self.topology = validate_topology(self.topology)
        check_fits(self.topology, self.task.n_features, self.task.n_classes,
                   f"task {self.task.name}")
        if self.chunks < 1 or self.reps < 1:
            raise ValueError("chunks and reps must be >= 1")
        if self.theta < 0.0:
            raise ValueError("theta must be >= 0")
        if abs(sum(self.splits) - 1.0) > 1e-9 or any(s <= 0 for s in self.splits):
            raise ValueError(f"splits must be positive and sum to 1, got {self.splits}")


@dataclass
class FixedInput:
    values: np.ndarray
    digest: str


def make_fixed_input(n_features: int, master_seed: int) -> FixedInput:
    """The one input vector every captured inference runs on."""
    rng = np.random.default_rng(derive_seed(master_seed, "fixed-input"))
    values = rng.random(n_features)
    return FixedInput(values=values, digest=digest_of(values.tolist()))


def attacker_data(cfg: PipelineConfig) -> tuple[list[Dataset], FixedInput]:
    """The attacker's pool cut into ``cfg.chunks`` chunks, and the fixed trace input."""
    pool = gen_synthetic(
        cfg.task, cfg.pool_size, seed=derive_seed(cfg.master_seed, "chunk-pool", cfg.task.name)
    )
    return chunk(pool, cfg.chunks), make_fixed_input(cfg.topology[0], cfg.master_seed)


@dataclass
class TracePairs:
    traces: np.ndarray        # (n, trace_len) float32, as the containers store them
    matrices: np.ndarray      # (n, rows, cols) float32
    chunk_of: np.ndarray      # (n,) chunk index per pair
    surrogate_train_acc: np.ndarray  # (n,)
    fixed_digest: str

    @property
    def n(self) -> int:
        return int(self.traces.shape[0])


def prepare_pairs(
    sub_chunks: list[Dataset],
    cfg: PipelineConfig,
    fixed: FixedInput,
    iteration: int,
    log: Optional[Callable[[str], None]] = None,
) -> TracePairs:
    """One (trace, matrix) pair per chunk x repetition.

    A chunk's ``reps`` surrogates train as one stack (``train_mlp_stack``),
    bit-identical to training them one by one.  Pair i uses device seed
    ``base XOR i`` where base is derived from the master seed and the
    iteration, so pairs are independent of the order they are simulated
    in.  Surrogate training quality is recorded, not gated.
    """
    device_base = derive_seed(cfg.master_seed, "phase1", iteration, "device")
    traces, matrices, chunk_of, accs = [], [], [], []
    pair_index = 0
    for ci, chunk_ds in enumerate(sub_chunks):
        check_fits(cfg.topology, chunk_ds.d, chunk_ds.n_classes, f"chunk {ci}")
        surs, train_cfgs = [], []
        for rep in range(cfg.reps):
            init_seed = derive_seed(cfg.master_seed, "phase1", iteration, "sur-init", ci, rep)
            train_seed = derive_seed(cfg.master_seed, "phase1", iteration, "sur-train", ci, rep)
            surs.append(init_mlp(cfg.topology, init_seed))
            train_cfgs.append(replace(cfg.surrogate, seed=train_seed))
        hists = train_mlp_stack(surs, chunk_ds.x, chunk_ds.y, train_cfgs)
        for sur, hist in zip(surs, hists):
            trace = simulate_trace(
                sur, fixed.values, cfg.device, seed=device_base ^ pair_index
            )
            traces.append(trace.samples)
            matrices.append(coefficients_to_matrix(sur).data)
            chunk_of.append(ci)
            accs.append(hist.train_acc[-1])
            pair_index += 1
        if log is not None:
            log(
                f"iteration={iteration} chunk={ci} pairs={pair_index} "
                f"mean_surrogate_acc={float(np.mean(accs)):.3f}"
            )
    return TracePairs(
        traces=np.asarray(traces, np.float32),
        matrices=np.asarray(matrices, np.float32),
        chunk_of=np.asarray(chunk_of, dtype=np.int64),
        surrogate_train_acc=np.asarray(accs, dtype=np.float64),
        fixed_digest=fixed.digest,
    )


def split_counts(n: int, splits: tuple[float, float, float]) -> tuple[int, int, int]:
    """Train/test/validation sizes; floors for train and test, remainder val."""
    n_train = int(math.floor(splits[0] * n))
    n_test = int(math.floor(splits[1] * n))
    n_val = n - n_train - n_test
    if min(n_train, n_test, n_val) < 1:
        raise ValueError(f"{n} pairs cannot honor splits {splits}")
    return n_train, n_test, n_val


@dataclass
class Translator:
    """Raw traces to weights matrices: PCA, then standardize, then the EDNN.

    ``fixed`` is the input every trace it translates was captured on.
    The EDNN keeps its parameters across ``fit`` calls (warm restarts);
    the PCA and standardizer are refit by each call.  ``write`` and
    ``read`` own the run-directory files fixed_input.json, pca.f64 (mean
    then components, little-endian float64), pca.json, pca_scaler.json,
    ednn.f32 (the EDNN's float32 parameters, little-endian, layer by layer,
    weight before bias, C order) and ednn.json.
    """

    ednn: EdnnModel
    fixed: FixedInput
    pca: Optional[PcaModel] = None
    scaler: Optional[Standardizer] = None

    def fit(
        self,
        cfg: PipelineConfig,
        pairs: TracePairs,
        split: dict,
        iteration: int,
        log: Optional[Callable[[str], None]] = None,
    ) -> tuple[EdnnHistory, float]:
        """One outer iteration; returns the EDNN history and test accuracy."""
        # reducer statistics come from the whole current pair set, not a split
        self.pca = pca_fit(pairs.traces, cfg.pca_k)
        reduced = pca_transform(self.pca, pairs.traces)
        self.scaler = Standardizer.fit(reduced)
        x_all = self.scaler.apply(reduced)
        mask = nonpad_mask(cfg.topology)
        hist = train_ednn(
            self.ednn,
            x_all[split["train"]],
            pairs.matrices[split["train"]],
            replace(cfg.ednn, seed=derive_seed(cfg.master_seed, "ednn-train", iteration)),
            theta=cfg.theta,
            val=(x_all[split["val"]], pairs.matrices[split["val"]]),
            mask=mask,
            log=log,
        )
        test_acc = ednn_accuracy(
            self.ednn.forward(x_all[split["test"]], train=False),
            pairs.matrices[split["test"]],
            cfg.ednn.tau,
            mask,
        )
        return hist, test_acc

    def predict(self, traces: np.ndarray) -> np.ndarray:
        """(n, trace_len) raw traces to (n, rows, cols) matrices."""
        return predict_weights(self.ednn, self.scaler.apply(pca_transform(self.pca, traces)))

    def write(self, run_dir, config_digest: str, meta: dict) -> None:
        """The six files, each JSON one stamped with ``config_digest``; ``meta`` heads ednn.json."""
        d, pca, sd, ednn = Path(run_dir), self.pca, self.scaler, self.ednn
        stamp = {"config_digest": config_digest}
        write_fixed_input(d, self.fixed, config_digest)
        write_array(d / "pca.f64", np.concatenate([pca.mean[None, :], pca.components]), "<f8")
        pca_meta = {"k": pca.k, "length": pca.length, "eigenvalues": pca.eigenvalues.tolist()}
        write_json(d / "pca.json", {**stamp, **pca_meta})
        scaler = {"mean": sd.mean.tolist(), "std": sd.std.tolist()}
        write_json(d / "pca_scaler.json", {**stamp, **scaler})
        ednn_meta = {**meta, **stamp, "scale": ednn.scale, "input_len": ednn.input_len,
                     "rows": ednn.rows, "cols": ednn.cols, "param_count": ednn.flat.size}
        write_json(d / "ednn.json", ednn_meta)
        write_array(d / "ednn.f32", ednn.flat, "<f4")

    @classmethod
    def read(cls, run_dir, config_digest: str) -> tuple[Translator, dict]:
        """The translator ``write`` left in ``run_dir``, and ednn.json's meta.

        Raises ValueError when a binary file's size disagrees with its
        header, or when a JSON file was written under another config than
        the one with ``config_digest``.
        """
        d = Path(run_dir)
        names = ("fixed_input.json", "ednn.json", "pca.json", "pca_scaler.json")
        fixed_doc, meta, pca_meta, sd = (read_json(d / name, config_digest) for name in names)
        block = read_array(d / "pca.f64", "<f8", (int(pca_meta["k"]) + 1, int(pca_meta["length"])))
        eigenvalues = np.asarray(pca_meta["eigenvalues"], dtype=np.float64)
        pca = PcaModel(mean=block[0], components=block[1:], eigenvalues=eigenvalues)
        scaler = Standardizer(np.asarray(sd["mean"], np.float64), np.asarray(sd["std"], np.float64))
        flat = read_array(d / "ednn.f32", "<f4", (int(meta["param_count"]),))
        shape = (int(meta["rows"]), int(meta["cols"]))
        ednn = ednn_from_vector(int(meta["input_len"]), shape, meta["scale"], flat)
        fixed = FixedInput(np.asarray(fixed_doc["values"], np.float64), fixed_doc["digest"])
        return cls(ednn=ednn, fixed=fixed, pca=pca, scaler=scaler), meta


@dataclass
class Phase1Result:
    """A finished ``run_phase1``: the fitted translator, its history, the last pairs and split."""

    translator: Translator
    reached_theta: bool
    iterations: list[dict]
    final_val_accuracy: float
    test_accuracy: float
    pairs: TracePairs
    split_idx: dict

    # what report.json's phase1 block and ednn.json record of a run
    SUMMARY_KEYS = ("reached_theta", "final_val_accuracy", "test_accuracy", "iterations")

    def summary(self) -> dict:
        return {key: getattr(self, key) for key in self.SUMMARY_KEYS}


def run_phase1(
    cfg: PipelineConfig, log: Optional[Callable[[str], None]] = None
) -> Phase1Result:
    """Grow the pair dataset chunk by chunk until the translator clears theta.

    Returns with reached_theta=False (not an error) when every chunk is
    used and validation accuracy still falls short.
    """
    chunks, fixed = attacker_data(cfg)
    translator = Translator(
        build_ednn(
            cfg.pca_k,
            matrix_shape(cfg.topology),
            cfg.scale,
            seed=derive_seed(cfg.master_seed, "ednn-init"),
        ),
        fixed,
    )
    iterations: list[dict] = []
    reached = False
    # PipelineConfig holds chunks >= 1, so the loop binds every value the result reads
    for k in range(1, cfg.chunks + 1):
        pairs = prepare_pairs(chunks[:k], cfg, fixed, iteration=k, log=log)
        n_train, n_test, n_val = split_counts(pairs.n, cfg.splits)
        order = np.random.default_rng(
            derive_seed(cfg.master_seed, "phase1", k, "split")
        ).permutation(pairs.n)
        split_idx = {
            "train": order[:n_train],
            "test": order[n_train : n_train + n_test],
            "val": order[n_train + n_test :],
        }
        hist, test_acc = translator.fit(cfg, pairs, split_idx, k, log=log)
        val_acc = hist.val_accuracy[-1] if hist.val_accuracy else 0.0
        iterations.append(
            {
                "iteration": k,
                "pairs": pairs.n,
                "mean_surrogate_train_acc": float(pairs.surrogate_train_acc.mean()),
                "ednn_epochs": hist.epochs_run,
                "val_accuracy": val_acc,
                "test_accuracy": test_acc,
                "reached_theta": hist.reached_theta,
            }
        )
        if log is not None:
            log(
                f"iteration={k} done val_acc={val_acc:.4f} "
                f"test_acc={test_acc:.4f} reached={hist.reached_theta}"
            )
        if hist.reached_theta:
            reached = True
            break

    return Phase1Result(
        translator=translator,
        reached_theta=reached,
        iterations=iterations,
        final_val_accuracy=val_acc,
        test_accuracy=test_acc,
        pairs=pairs,
        split_idx={k2: v.tolist() for k2, v in split_idx.items()},
    )


def run_phase2(
    target: MlpModel,
    translator: Translator,
    cfg: PipelineConfig,
    seed: Optional[int] = None,
) -> WeightsMatrix:
    """Capture one trace of the victim model on the translator's fixed input and translate it.

    The victim must share the pipeline topology, so its trace has the
    length the translator was fit on.  The fixed input is checked against
    its digest before it is replayed.
    """
    if tuple(target.topology) != tuple(cfg.topology):
        raise ValueError(
            f"victim topology {target.topology} does not match pipeline {cfg.topology}"
        )
    fixed = translator.fixed
    if fixed.digest != digest_of(fixed.values.tolist()):
        raise ValueError("fixed input digest mismatch; phase-1 artifacts are corrupt")
    trace_seed = derive_seed(cfg.master_seed, "phase2", "device") if seed is None else seed
    trace = simulate_trace(target, fixed.values, cfg.device, seed=trace_seed)
    return translate_trace(trace.samples, translator, cfg.topology)


def translate_trace(
    samples: np.ndarray, translator: Translator, topology: tuple[int, ...]
) -> WeightsMatrix:
    """One raw trace through the fitted translator."""
    samples = np.asarray(samples, np.float32)[None, :]
    length = translator.pca.length
    if samples.shape[1] != length:
        raise ValueError(
            f"trace length {samples.shape[1]} violates topology "
            f"{tuple(topology)}: the fitted reducer expects {length} samples"
        )
    rows, cols = matrix_shape(topology)
    return WeightsMatrix(
        rows=rows, cols=cols, topology=tuple(topology), data=translator.predict(samples)[0]
    )


def run_phase3(
    matrix: WeightsMatrix,
    d_small: Dataset,
    cfg: PipelineConfig,
    seed: int,
    model: Optional[MlpModel] = None,
) -> tuple[MlpModel, TrainHistory]:
    """Decode the matrix into a model and fine-tune it on d_small.

    epochs_max == 0 returns the decoded model untouched (no randomness
    is consumed).  ``model`` overrides the starting point, which is how
    the small-data-only baseline reuses the same training path from a
    random initialization.
    """
    check_fits(cfg.topology, d_small.d, d_small.n_classes, f"dataset {d_small.name!r}")
    if d_small.n == 0 or np.unique(d_small.y).size < 2:
        raise ValueError(
            f"d_small needs at least two classes to fine-tune, got "
            f"{np.unique(d_small.y).size} in {d_small.n} samples"
        )
    start = model if model is not None else matrix_to_coefficients(matrix, cfg.topology)
    ft = cfg.finetune
    if ft.epochs_max == 0:
        return start, TrainHistory()
    train_ds, val_ds = stratified_split(
        d_small, ft.val_frac, derive_seed(seed, "finetune-split")
    )
    hist = train_mlp(
        start,
        train_ds.x,
        train_ds.y,
        ft.train_config(derive_seed(seed, "finetune-train")),
        val=(val_ds.x, val_ds.y),
    )
    return start, hist


def write_fixed_input(out_dir, fixed: FixedInput, config_digest: str) -> None:
    doc = {"values": fixed.values.tolist(), "digest": fixed.digest, "config_digest": config_digest}
    write_json(Path(out_dir) / "fixed_input.json", doc)


def write_pairs(out_dir, pairs: TracePairs, config_digest: str, splits=None) -> None:
    """Pair container: trace container plus matrices.f32/matrices.json."""
    out = Path(out_dir)
    meta = {
        "fixed_digest": pairs.fixed_digest,
        "config_digest": config_digest,
        "chunk_of": pairs.chunk_of.tolist(),
        "surrogate_train_acc": pairs.surrogate_train_acc.tolist(),
    }
    if splits is not None:
        meta["splits"] = splits
    write_trace_container(out, pairs.traces, meta)
    write_array(out / "matrices.f32", pairs.matrices, "<f4")
    count, rows, cols = pairs.matrices.shape
    header = {"count": count, "rows": rows, "cols": cols, "dtype": "<f4"}
    write_json(out / "matrices.json", {**header, "config_digest": config_digest})


def persist_phase1(out_dir, result: Phase1Result, config_digest: str) -> None:
    """Write the run-dir artifacts: pairs/ and the translator's files."""
    out = Path(out_dir)
    write_pairs(out / "pairs", result.pairs, config_digest, splits=result.split_idx)
    result.translator.write(out, config_digest, result.summary())
