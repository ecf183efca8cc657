"""PCA dimensionality reduction for traces, plus per-dimension scaling.

The PCA is the covariance eigendecomposition.  When there are fewer
traces than samples per trace (the usual case here) the eigenvectors are
obtained through the Gram matrix of the centered data, which is
algebraically the same decomposition at a fraction of the cost.  Each
component's sign is normalized so its largest-magnitude entry is
positive, making fits reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "PcaModel",
    "RankDeficiencyError",
    "Standardizer",
    "pca_fit",
    "pca_transform",
]

_RANK_TOL = 1e-10


class RankDeficiencyError(NumericalError):
    pass


@dataclass
class PcaModel:
    mean: np.ndarray          # (length,)
    components: np.ndarray    # (k, length), orthonormal rows
    eigenvalues: np.ndarray   # (k,), descending

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def length(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    for row in components:
        idx = int(np.argmax(np.abs(row)))
        if row[idx] < 0:
            row *= -1.0
    return components


def pca_fit(x, k: int) -> PcaModel:
    """Top-k principal components of the rows of ``x``.

    Requires 2 <= n and 1 <= k <= min(n, length).  Raises if the data
    rank cannot support k components, rather than returning degenerate
    directions.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected 2-d data, got shape {x.shape}")
    n, length = x.shape
    if n < 2:
        raise ValueError("pca_fit needs at least 2 rows")
    if not 1 <= k <= min(n, length):
        raise ValueError(f"k={k} must be in 1..min(n={n}, length={length})")
    mean = x.mean(axis=0)
    xc = x - mean

    # fewer rows than columns: eigenvectors of the Gram matrix, lifted below
    gram = n < length
    evals, vecs = np.linalg.eigh((xc @ xc.T if gram else xc.T @ xc) / (n - 1))
    evals = evals[::-1][:k]
    vecs = vecs[:, ::-1][:, :k]
    if evals[-1] < _RANK_TOL * max(float(evals[0]), 1.0):
        raise RankDeficiencyError(
            f"data rank is below k={k}; smallest kept eigenvalue {evals[-1]:.3e}"
        )
    if gram:
        lifted = xc.T @ vecs
        vecs = lifted / np.linalg.norm(lifted, axis=0)
    comps = vecs.T.copy()

    evals = np.maximum(evals, 0.0)
    return PcaModel(mean=mean, components=_fix_signs(comps), eigenvalues=evals)


def pca_transform(model: PcaModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.length:
        raise ValueError(
            f"trace length {x.shape[-1]} does not match fitted length {model.length}"
        )
    return (x - model.mean) @ model.components.T


@dataclass
class Standardizer:
    """Per-dimension shift to zero mean and unit population std."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population convention, ddof=0
        return cls(mean=mean, std=np.maximum(std, 1e-12))

    def apply(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

