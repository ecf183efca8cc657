"""Classification metrics and training-curve diagnostics."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "confusion_matrix",
    "accuracy_from_cm",
    "f1_score",
    "overfit_epoch",
]


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """(n_classes, n_classes) counts, rows = truth, columns = prediction."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch {t.shape} vs {p.shape}")
    if t.size and (min(t.min(), p.min()) < 0 or max(t.max(), p.max()) >= n_classes):
        raise ValueError(f"labels out of range for {n_classes} classes")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def accuracy_from_cm(cm: np.ndarray) -> float:
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm) / total)


def f1_score(cm: np.ndarray, average: str = "binary") -> float:
    """F1 from a confusion matrix.

    "binary" treats class 1 as positive and needs a 2x2 matrix.  "macro"
    averages the one-vs-rest F1 of every class, scoring 0 for classes
    with no predictions and no truth hits.
    """
    cm = np.asarray(cm, dtype=np.int64)
    if average not in ("binary", "macro"):
        raise ValueError(f"unknown averaging {average!r}")
    if average == "binary" and cm.shape != (2, 2):
        raise ValueError(f"binary F1 needs a 2x2 matrix, got {cm.shape}")
    scores = []
    for c in range(cm.shape[0]):
        tp = int(cm[c, c])
        fp = int(cm[:, c].sum() - tp)
        fn = int(cm[c, :].sum() - tp)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        scores.append(0.0 if precision + recall == 0.0
                      else 2.0 * precision * recall / (precision + recall))
    return scores[1] if average == "binary" else float(np.mean(scores))


def overfit_epoch(curve: Sequence[float], window: int = 5) -> Optional[int]:
    """First epoch whose accuracy is never reached again.

    Returns the 1-based epoch e where curve[e] is the running maximum and
    each of the following ``window`` epochs is strictly below it, or None
    when no epoch qualifies (curve too short, still improving, or flat).
    """
    vals = list(curve)
    if window < 1:
        raise ValueError("window must be >= 1")
    running = -np.inf
    for i, v in enumerate(vals):
        if v < running:
            continue
        running = v
        tail = vals[i + 1 : i + 1 + window]
        if len(tail) == window and all(t < v for t in tail):
            return i + 1
    return None
