"""Codec between MLP coefficients and the fixed-size matrix image.

One row per neuron, layers in order, neurons in order within a layer.
A neuron's row holds its incoming weights in input order, then its bias,
then zero padding out to the widest row.  The matrix therefore has
``sum(topology[1:])`` rows and ``1 + max(fan_in)`` columns, and the
non-pad entry count equals the device's MAC count for the same topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mlp import MlpModel, validate_topology

__all__ = [
    "WeightsMatrix",
    "matrix_shape",
    "nonpad_mask",
    "coefficients_to_matrix",
    "matrix_to_coefficients",
]


@dataclass
class WeightsMatrix:
    rows: int
    cols: int
    topology: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.topology = validate_topology(self.topology)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.rows, self.cols):
            raise ValueError(
                f"matrix data is {self.data.shape}, header says {(self.rows, self.cols)}"
            )
        if (self.rows, self.cols) != matrix_shape(self.topology):
            raise ValueError(
                f"shape {(self.rows, self.cols)} does not match topology {self.topology}"
            )

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "topology": list(self.topology),
            "data": self.data.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "WeightsMatrix":
        """``to_json_dict``'s inverse; ValueError when a cell is not a finite number."""
        data = np.asarray(d["data"], dtype=np.float64)
        if not np.isfinite(data).all():
            raise ValueError("matrix holds a cell that is not a finite number")
        return cls(rows=int(d["rows"]), cols=int(d["cols"]), topology=tuple(d["topology"]),
                   data=data)


def matrix_shape(topology: Sequence[int]) -> tuple[int, int]:
    """(rows, cols) of the matrix image for a topology."""
    topo = validate_topology(topology)
    rows = sum(topo[1:])
    cols = 1 + max(topo[:-1])
    return rows, cols


def nonpad_mask(topology: Sequence[int]) -> np.ndarray:
    """Boolean mask of entries that carry a coefficient (True) vs padding."""
    topo = validate_topology(topology)
    rows, cols = matrix_shape(topo)
    mask = np.zeros((rows, cols), dtype=bool)
    r = 0
    for fan_in, fan_out in zip(topo[:-1], topo[1:]):
        mask[r : r + fan_out, : fan_in + 1] = True
        r += fan_out
    return mask


def coefficients_to_matrix(model: MlpModel) -> WeightsMatrix:
    rows, cols = matrix_shape(model.topology)
    data = np.zeros((rows, cols), dtype=np.float64)
    r = 0
    for w, b in zip(model.weights, model.biases):
        fan_in, fan_out = w.shape
        data[r : r + fan_out, :fan_in] = w.T
        data[r : r + fan_out, fan_in] = b
        r += fan_out
    return WeightsMatrix(rows, cols, model.topology, data)


def matrix_to_coefficients(matrix: WeightsMatrix, topology: Sequence[int]) -> MlpModel:
    """Inverse of coefficients_to_matrix; padding is ignored."""
    topo = validate_topology(topology)
    if tuple(matrix.topology) != topo:
        raise ValueError(
            f"matrix topology {matrix.topology} does not match requested {topo}"
        )
    weights, biases = [], []
    r = 0
    for fan_in, fan_out in zip(topo[:-1], topo[1:]):
        block = matrix.data[r : r + fan_out]
        weights.append(block[:, :fan_in].T)
        biases.append(block[:, fan_in])
        r += fan_out
    return MlpModel(topo, weights, biases)
