"""Fully connected classifier models.

Hidden layers use relu.  The output head is a single sigmoid unit for
binary tasks and a softmax row for anything wider.  Forward and backward
passes run through ``nn``'s Dense, ReLU and Dropout layers built over
views of a model's (or a stack's) parameter vector, and training is
``nn.train`` on the head's cross-entropy, with optional inverted dropout
after each hidden layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .nn import (
    Dense,
    Dropout,
    ReLU,
    TrainConfig,
    TrainHistory,
    bind_layers,
    cross_entropy_from_probs,
    forward,
    sigmoid,
    softmax,
    train,
)

__all__ = [
    "MlpModel",
    "TrainConfig",
    "TrainHistory",
    "check_fits",
    "head_width",
    "init_mlp",
    "mlp_forward",
    "predict_labels",
    "model_accuracy",
    "train_mlp",
    "train_mlp_stack",
    "model_to_dict",
    "model_from_dict",
]


@dataclass
class MlpModel:
    """Topology plus per-layer weight (fan_in, fan_out) and bias arrays.

    Construction copies the arrays into one vector, ``flat``, and binds
    ``layers`` to it once: the forward-only network ``mlp_forward`` runs.
    ``weights``/``biases`` are its Dense layers' ``w``/``b``, laid out layer
    by layer, weight before bias, each in C order.
    """

    topology: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)
    layers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [a for wb in zip(self.weights, self.biases) for a in wb]
        self.flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self.layers = _network(self.flat, self.topology)
        dense = self.layers[::3]
        self.weights, self.biases = [d.w for d in dense], [d.b for d in dense]


def validate_topology(topology: Sequence[int]) -> tuple[int, ...]:
    topo = tuple(int(t) for t in topology)
    if len(topo) < 2:
        raise ValueError(f"topology needs at least input and output, got {topo}")
    if any(t < 1 for t in topo):
        raise ValueError(f"topology layer sizes must be positive, got {topo}")
    return topo


def head_width(n_classes: int) -> int:
    """Output units for ``n_classes`` classes: one sigmoid unit for two, else a softmax row."""
    return 1 if n_classes == 2 else n_classes


def check_fits(topology, n_features, n_classes, what):
    """ValueError naming ``what`` (data) unless a ``topology`` model reads its features
    and has the head of its classes."""
    if topology[0] != n_features:
        raise ValueError(f"{what} has {n_features} features, topology {topology} reads "
                         f"{topology[0]}")
    if topology[-1] != head_width(n_classes):
        raise ValueError(f"{what} has {n_classes} classes, which need a "
                         f"{head_width(n_classes)}-unit head; topology {topology} has "
                         f"{topology[-1]}")


def init_mlp(topology: Sequence[int], seed: int) -> MlpModel:
    """Fresh model, every layer uniform in +-sqrt(1/fan_in)."""
    topo = validate_topology(topology)
    shapes = list(zip(topo, topo[1:]))
    model = MlpModel(topo, [np.zeros(shape) for shape in shapes],
                     [np.zeros(fan_out) for _, fan_out in shapes])
    # binding the model's own layers again over its vector draws their init into it
    bind_layers(model.layers, model.flat, None, np.random.default_rng(seed))
    return model


def _network(flat, topology, grad=None, dropout=0.0):
    """Dense layers over ``flat``/``grad`` (``nn.bind_layers``), with ReLU and Dropout between.

    Dense layer i is ``[3 * i]``; the head is ``_head``'s.  ``flat`` is one
    model's vector or a stack's (S, P) block; without ``grad`` the layers
    run forward only.
    """
    dense = [Dense(fan_in, fan_out, None) for fan_in, fan_out in zip(topology, topology[1:])]
    bind_layers(dense, flat, grad)
    layers = dense[:1]
    for layer in dense[1:]:
        layers += [ReLU(), Dropout(dropout), layer]
    return layers


def _head(z):
    """Head probabilities: sigmoid for a single output unit, else softmax."""
    return sigmoid(z) if z.shape[-1] == 1 else softmax(z)


def _cross_entropy(z, labels):
    """(mean cross-entropy per model of integer ``labels`` under the head of ``z``, dloss/dz)."""
    out = _head(z)
    n = out.shape[-2]
    if out.shape[-1] == 1:
        dz = (out - labels[..., None]) / n
    else:
        dz = (out - (labels[..., None] == np.arange(out.shape[-1]))) / n
    return cross_entropy_from_probs(out, labels), dz


def _labels(probs):
    """Hard labels: argmax over the last axis, or threshold 0.5 for the sigmoid head."""
    if probs.shape[-1] == 1:
        return (probs[..., 0] >= 0.5).astype(np.int64)
    return np.argmax(probs, axis=-1).astype(np.int64)


def mlp_forward(model, x):
    """Probabilities for a (d,) vector or (n, d) batch."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = _head(forward(model.layers, x2))
    return out[0] if np.ndim(x) == 1 else out


def predict_labels(model, x):
    """Hard labels: argmax rows, or threshold 0.5 for the sigmoid head."""
    return _labels(mlp_forward(model, np.atleast_2d(np.asarray(x, dtype=np.float64))))


def model_accuracy(model, x, y):
    return float(np.mean(predict_labels(model, x) == np.asarray(y)))


def train_mlp(model, x, y, cfg: TrainConfig, val=None) -> TrainHistory:
    """Train in place on cross-entropy; ``train_mlp_stack`` on a stack of one.

    ``val`` (x_val, y_val) is scored per epoch and drives ``cfg``'s
    schedule (see ``nn.train``).
    """
    return train_mlp_stack([model], x, y, [cfg], val=val)[0]


def train_mlp_stack(models, x, y, cfgs, val=None) -> list[TrainHistory]:
    """Train same-topology models in step and in place; one history each.

    ``cfgs[i]`` configures ``models[i]``, and the configs may differ only
    in ``seed``.  A stack of S > 1 models trains a copy of their
    parameters as one (S, P) block: each batch runs through one batched
    forward and backward, and one Adam steps the whole block.  Every model
    ends bit-identical to training it by itself.  ``val`` needs a single
    model.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("training set is empty")
    topology = models[0].topology
    if len(cfgs) != len(models) or any(m.topology != topology for m in models):
        raise ValueError("a stack needs models of one topology and one config each")
    flat = models[0].flat if len(models) == 1 else np.stack([m.flat for m in models])
    grad = np.zeros_like(flat)
    layers = _network(flat, topology, grad, cfgs[0].dropout)

    def accuracy(xs, ys):
        return np.mean(_labels(_head(forward(layers, np.asarray(xs, np.float64)))) == ys, axis=-1)

    hists = train(layers, flat, grad, x, lambda z, idx: _cross_entropy(z, y[idx]), cfgs,
                  train_score=lambda: accuracy(x, y),
                  val_score=None if val is None else lambda: float(accuracy(*val)))
    if len(models) > 1:
        for model, row in zip(models, flat):
            model.flat[...] = row
    return hists


def model_to_dict(model) -> dict:
    return {
        "topology": list(model.topology),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def model_from_dict(d) -> MlpModel:
    """``model_to_dict``'s inverse; ValueError names a layer that does not fit the
    topology or holds a coefficient that is not finite."""
    topo = validate_topology(d["topology"])
    weights = [np.asarray(w, dtype=np.float64) for w in d["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in d["biases"]]
    layers = len(topo) - 1
    if len(weights) != layers or len(biases) != layers:
        raise ValueError(
            f"layer {min(len(weights), len(biases), layers)}: {len(weights)} weight and "
            f"{len(biases)} bias arrays for the {layers} layers of topology {topo}"
        )
    for i, (w, b, fan_in, fan_out) in enumerate(zip(weights, biases, topo[:-1], topo[1:])):
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise ValueError(f"layer {i} arrays do not match topology {topo}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {i} holds a coefficient that is not a finite number")
    return MlpModel(topo, weights, biases)
