"""Synthetic classification tasks, chunking, small-set sampling, CSV load.

Tasks are seeded Gaussian mixtures: each class owns a few cluster
centers and samples scatter around them.  Features are min-max scaled to
[0, 1] and rounded through float32 so the in-memory values match the
on-disk container exactly.  Presets cover three shapes used throughout
the experiments: binary-wide (19 features), binary-narrow (9 features)
and ternary (13 features, 3 classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .artifacts import read_array, read_json, write_array, write_json

__all__ = [
    "TaskSpec",
    "Dataset",
    "PRESETS",
    "gen_synthetic",
    "chunk",
    "sample_dsmall",
    "stratified_split",
    "load_csv",
    "write_dataset",
    "read_dataset",
]


@dataclass(frozen=True)
class TaskSpec:
    name: str
    n_features: int
    n_classes: int
    clusters_per_class: int = 4
    separation: float = 1.0
    cluster_spread: float = 0.25
    dsmall_size: int = 22
    seed: int = 0

    def __post_init__(self):
        if self.n_features < 1 or self.n_classes < 2:
            raise ValueError("need n_features >= 1 and n_classes >= 2")
        if self.clusters_per_class < 1:
            raise ValueError("clusters_per_class must be >= 1")
        if self.separation < 0 or self.cluster_spread < 0:
            raise ValueError("separation and cluster_spread must be >= 0")


PRESETS = {
    "binary-wide": TaskSpec(
        name="binary-wide", n_features=19, n_classes=2, dsmall_size=22
    ),
    "binary-narrow": TaskSpec(
        name="binary-narrow", n_features=9, n_classes=2, dsmall_size=45
    ),
    "ternary": TaskSpec(
        name="ternary", n_features=13, n_classes=3, dsmall_size=75
    ),
}


@dataclass
class Dataset:
    x: np.ndarray            # (n, d) float64 in [0, 1]
    y: np.ndarray            # (n,) int64
    name: str
    n_classes: int
    scaling: dict = field(default_factory=dict)   # per-feature lo/hi used
    imbalance: Optional[dict] = None

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def d(self) -> int:
        return int(self.x.shape[1])

    def subset(self, idx) -> "Dataset":
        return replace(self, x=self.x[idx].copy(), y=self.y[idx].copy())


def _near_equal_counts(n: int, parts: int) -> list[int]:
    base, rem = divmod(n, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _min_max_scale(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Min-max scale each column to [0, 1], a constant column to 0.

    The values are rounded through float32 so disk and memory agree; the
    dict holds each column's lo and hi.
    """
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    x = np.where(hi > lo, (x - lo) / span, 0.0)
    return x.astype(np.float32).astype(np.float64), {"lo": lo.tolist(), "hi": hi.tolist()}


def gen_synthetic(spec: TaskSpec, n: int, seed: Optional[int] = None) -> Dataset:
    """Draw n samples of the mixture task; deterministic in (spec, n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.seed if seed is None else int(seed))
    centers = spec.separation * rng.standard_normal(
        (spec.n_classes, spec.clusters_per_class, spec.n_features)
    )
    xs, ys = [], []
    for c, count in enumerate(_near_equal_counts(n, spec.n_classes)):
        clusters = np.arange(count) % spec.clusters_per_class
        noise = spec.cluster_spread * rng.standard_normal((count, spec.n_features))
        xs.append(centers[c, clusters] + noise)
        ys.append(np.full(count, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(n)
    x, scaling = _min_max_scale(x[order])
    return Dataset(
        x=x,
        y=y[order],
        name=spec.name,
        n_classes=spec.n_classes,
        scaling=scaling,
    )


def chunk(dataset: Dataset, count: int) -> list[Dataset]:
    """Split into ``count`` disjoint stratified chunks of near-equal size.

    Within every class the chunks differ by at most one sample.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count * dataset.n_classes > dataset.n:
        raise ValueError(
            f"cannot cut {dataset.n} samples of {dataset.n_classes} classes "
            f"into {count} stratified chunks"
        )
    buckets: list[list[int]] = [[] for _ in range(count)]
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.y == c)
        for i in range(count):
            buckets[i].extend(idx[i::count].tolist())
    return [dataset.subset(np.sort(np.asarray(b, dtype=np.int64))) for b in buckets]


def sample_dsmall(dataset: Dataset, size: int, mode: str, seed: int) -> Dataset:
    """Draw a small training set without replacement.

    "balanced" splits ``size`` as evenly as classes allow.  "imbalanced2x"
    gives one seed-chosen class twice the per-class count of the others
    (within rounding).  Every class is always present.
    """
    rng = np.random.default_rng(seed)
    c = dataset.n_classes
    if size < 2 * c:
        raise ValueError(f"size {size} is below the minimum 2 per class ({2 * c})")
    if mode == "balanced":
        counts = _near_equal_counts(size, c)
        imbalance = None
    elif mode == "imbalanced2x":
        skew = int(rng.integers(c))
        others = size // (c + 1)
        if others < 1:
            raise ValueError(f"size {size} too small for imbalanced2x with {c} classes")
        counts = [others] * c
        counts[skew] = size - others * (c - 1)
        imbalance = {"mode": mode, "skew_class": skew}
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if min(counts) < 1:
        raise ValueError(f"size {size} cannot cover all {c} classes")

    picked = []
    for cls, cnt in enumerate(counts):
        idx = np.flatnonzero(dataset.y == cls)
        if len(idx) < cnt:
            raise ValueError(
                f"class {cls} has {len(idx)} samples, need {cnt} for the draw"
            )
        picked.append(rng.choice(idx, size=cnt, replace=False))
    order = np.sort(np.concatenate(picked))
    out = dataset.subset(order)
    out.imbalance = imbalance
    return out


def stratified_split(dataset: Dataset, val_frac: float, seed: int):
    """(train, val) split keeping every class in both sides when possible."""
    if not 0.0 < val_frac < 1.0:
        raise ValueError("val_frac must be in (0, 1)")
    rng = np.random.default_rng(seed)
    val_idx, train_idx = [], []
    for c in range(dataset.n_classes):
        idx = rng.permutation(np.flatnonzero(dataset.y == c))
        if len(idx) < 2:
            train_idx.extend(idx.tolist())
            continue
        n_val = int(round(val_frac * len(idx)))
        n_val = min(max(n_val, 1), len(idx) - 1)
        val_idx.extend(idx[:n_val].tolist())
        train_idx.extend(idx[n_val:].tolist())
    return (
        dataset.subset(np.sort(np.asarray(train_idx, dtype=np.int64))),
        dataset.subset(np.sort(np.asarray(val_idx, dtype=np.int64))),
    )


def load_csv(path, label_column: str) -> Dataset:
    """Load a numeric CSV with a header row into a scaled Dataset.

    Labels must be integers.  Every feature column is min-max scaled to
    [0, 1]; constant columns map to 0.  Parse failures, non-finite cells
    included, report the file row number and column name.
    """
    p = Path(path)
    lines = [ln for ln in p.read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{p}: need a header and at least one data row")
    header = [h.strip() for h in lines[0].split(",")]
    if label_column not in header:
        raise ValueError(f"{p}: no column named {label_column!r} in {header}")
    label_pos = header.index(label_column)
    feat_names = [h for i, h in enumerate(header) if i != label_pos]

    rows, labels = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(
                f"{p}: row {lineno} has {len(cells)} fields, header has {len(header)}"
            )
        vals = []
        for i, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                v = np.nan
            if not np.isfinite(v):  # float() accepts "nan" and "inf"
                raise ValueError(
                    f"{p}: row {lineno}, column {header[i]!r}: not a finite number: {cell!r}"
                )
            if i == label_pos:
                if v != int(v):
                    raise ValueError(
                        f"{p}: row {lineno}, column {header[i]!r}: label must be an integer"
                    )
                labels.append(int(v))
            else:
                vals.append(v)
        rows.append(vals)

    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise ValueError(f"{p}: labels must be nonnegative")
    n_classes = int(y.max()) + 1
    x, scaling = _min_max_scale(x)
    return Dataset(
        x=x,
        y=y,
        name=p.stem,
        n_classes=max(n_classes, 2),
        scaling=scaling | {"columns": feat_names},
    )


def write_dataset(path, ds: Dataset, meta: Optional[dict] = None) -> None:
    """data.json plus data.f32: features row-major, then labels."""
    d = Path(path)
    write_array(d / "data.f32", np.concatenate([ds.x.reshape(-1), ds.y]), "<f4")
    meta = dict(meta or {})
    meta |= {
        "name": ds.name,
        "n": ds.n,
        "d": ds.d,
        "n_classes": ds.n_classes,
        "scaling": ds.scaling,
        "imbalance": ds.imbalance,
        "layout": "features row-major, then labels, all <f4",
    }
    write_json(d / "data.json", meta)


def read_dataset(path) -> Dataset:
    """``write_dataset``'s container; ValueError if a feature cell is not
    finite or a label is not an integer in [0, n_classes)."""
    d = Path(path)
    meta = read_json(d / "data.json")
    n, dim, n_classes = int(meta["n"]), int(meta["d"]), int(meta["n_classes"])
    raw = read_array(d / "data.f32", "<f4", (n * dim + n,))
    x = raw[: n * dim].reshape(n, dim).astype(np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"{d / 'data.f32'}: a feature cell is not a finite number")
    labels = raw[n * dim :]
    if not np.isin(labels, np.arange(n_classes)).all():
        raise ValueError(f"{d / 'data.f32'}: a label is not an integer in [0, {n_classes})")
    return Dataset(
        x=x,
        y=labels.astype(np.int64),
        name=meta["name"],
        n_classes=n_classes,
        scaling=meta.get("scaling", {}),
        imbalance=meta.get("imbalance"),
    )
