"""Fully connected classifier models and their training loop.

Hidden layers use relu.  The output head is a single sigmoid unit for
binary tasks and a softmax row for anything wider.  Training is Adam on
cross-entropy with optional inverted dropout after each hidden layer.
Forward and backward passes run through ``nn``'s Dense, ReLU and Dropout
layers built over views of a model's (or a stack's) parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .nn import (
    Adam,
    Dense,
    Dropout,
    ReLU,
    backprop,
    sigmoid,
    softmax,
    cross_entropy_from_probs,
)

__all__ = [
    "MlpModel",
    "TrainConfig",
    "TrainHistory",
    "init_mlp",
    "mlp_forward",
    "mlp_backward",
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

    Construction copies the arrays into one vector, ``flat``, and keeps
    ``weights``/``biases`` as views into it: layer by layer, weight
    before bias, each in C order.
    """

    topology: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = [a for wb in zip(self.weights, self.biases) for a in wb]
        self.flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self.weights, self.biases = _layer_views(self.flat, self.topology)

    def copy(self) -> "MlpModel":
        return MlpModel(self.topology, self.weights, self.biases)

    @property
    def n_classes(self) -> int:
        return 2 if self.topology[-1] == 1 else self.topology[-1]


def validate_topology(topology: Sequence[int]) -> tuple[int, ...]:
    topo = tuple(int(t) for t in topology)
    if len(topo) < 2:
        raise ValueError(f"topology needs at least input and output, got {topo}")
    if any(t < 1 for t in topo):
        raise ValueError(f"topology layer sizes must be positive, got {topo}")
    return topo


def init_mlp(topology: Sequence[int], seed: int) -> MlpModel:
    """Fresh model, every layer uniform in +-sqrt(1/fan_in)."""
    topo = validate_topology(topology)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(topo[:-1], topo[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=(fan_out,)))
    return MlpModel(topo, weights, biases)


def _layer_views(flat, topology):
    """Per-layer weight and bias views of one model's vector or a stack's block.

    ``flat`` is a (P,) vector laid out as ``MlpModel.flat`` or an (S, P)
    block of S such rows.  Weights come out (..., fan_in, fan_out) and
    biases (..., fan_out).
    """
    lead = flat.shape[:-1]
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(topology[:-1], topology[1:]):
        weights.append(flat[..., at : at + fan_in * fan_out].reshape(lead + (fan_in, fan_out)))
        at += fan_in * fan_out
        biases.append(flat[..., at : at + fan_out])
        at += fan_out
    return weights, biases


def _network(flat, topology, grad=None, dropout=0.0):
    """Dense layers over ``_layer_views`` of ``flat`` and ``grad``, ReLU and Dropout between.

    Without ``grad`` the layers run forward only; the head is ``_predict``'s.
    """
    weights, biases = _layer_views(flat, topology)
    none = [None] * len(weights)
    grad_w, grad_b = (none, none) if grad is None else _layer_views(grad, topology)
    layers = []
    for w, b, gw, gb in zip(weights, biases, grad_w, grad_b):
        if layers:
            layers += [ReLU(), Dropout(dropout)]
        dense = Dense(w.shape[-2], w.shape[-1], None)
        dense.adopt(w, b, gw, gb)
        layers.append(dense)
    return layers


def _predict(layers, x, train=False, rng=None):
    """Head probabilities: sigmoid for a single output unit, else softmax."""
    for layer in layers:
        x = layer.forward(x, train=train, rng=rng)
    return sigmoid(x) if x.shape[-1] == 1 else softmax(x)


def _loss_and_grads(layers, x, labels, rng=None):
    """Mean batch cross-entropy per model of integer ``labels``, (..., n) like the batch.

    The layers write their gradients; an ``rng`` turns dropout on.
    """
    out = _predict(layers, x, train=rng is not None, rng=rng)
    n = out.shape[-2]
    loss_val = cross_entropy_from_probs(out, labels)
    if out.shape[-1] == 1:
        dz = (out - labels[..., None]) / n
    else:
        dz = (out - (labels[..., None] == np.arange(out.shape[-1]))) / n
    backprop(layers, dz)
    return loss_val


class _PerModelRandom:
    """The Dropout generator of a stack: each model's row comes from its own generator.

    ``random(shape)`` fills row s of an (S, ...) draw as model s alone would draw it.
    """

    def __init__(self, rngs):
        self.rngs = rngs

    def random(self, shape):
        out = np.empty(shape)
        for row, rng in zip(out.reshape(len(self.rngs), -1), self.rngs):
            rng.random(out=row)
        return out


def _labels(probs):
    """Hard labels: argmax over the last axis, or threshold 0.5 for the sigmoid head."""
    if probs.shape[-1] == 1:
        return (probs[..., 0] >= 0.5).astype(np.int64)
    return np.argmax(probs, axis=-1).astype(np.int64)


def mlp_forward(model, x):
    """Probabilities for a (d,) vector or (n, d) batch."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = _predict(_network(model.flat, model.topology), x2)
    return out[0] if np.ndim(x) == 1 else out


def mlp_backward(model, x, labels):
    """Cross-entropy and parameter gradients for one batch of integer labels, without dropout.

    The gradients are views into one new vector laid out like ``model.flat``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    grad = np.zeros_like(model.flat)
    loss_val = _loss_and_grads(_network(model.flat, model.topology, grad), x, labels)
    return float(loss_val), *_layer_views(grad, model.topology)


def predict_labels(model, x):
    """Hard labels: argmax rows, or threshold 0.5 for the sigmoid head."""
    return _labels(mlp_forward(model, np.atleast_2d(np.asarray(x, dtype=np.float64))))


def model_accuracy(model, x, y):
    return float(np.mean(predict_labels(model, x) == np.asarray(y)))


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one MLP training run, whatever the model's role."""

    epochs: int
    batch_size: int = 16
    lr: float = 0.003
    dropout: float = 0.0
    seed: int = 0
    early_stop_patience: Optional[int] = None
    lr_halve_after: Optional[int] = None
    restore_best: bool = False


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


def train_mlp(model, x, y, cfg: TrainConfig, val=None) -> TrainHistory:
    """Train in place with Adam on cross-entropy.

    When ``val`` (x_val, y_val) is given, validation accuracy is recorded
    per epoch and drives the optional early-stop/halving/restore logic:
    the learning rate halves after ``lr_halve_after`` epochs without a new
    best validation accuracy, training stops after ``early_stop_patience``
    such epochs, and ``restore_best`` puts the best checkpoint back at the
    end.  Epoch counters in the history are 1-based.  This is
    ``train_mlp_stack`` on a stack of one.
    """
    return train_mlp_stack([model], x, y, [cfg], val=val)[0]


def train_mlp_stack(models, x, y, cfgs, val=None) -> list[TrainHistory]:
    """Train same-topology models in step and in place; one history each.

    ``cfgs[i]`` configures ``models[i]``, and the configs may differ only
    in ``seed``.  A stack of S > 1 models trains a copy of their
    parameters as one (S, P) block: each batch runs through one batched
    forward and backward, and one Adam steps the whole block.  Each model
    keeps its own generator and draws from it in the order it would alone
    (a permutation per epoch, then each batch's dropout masks layer by
    layer), so every model ends bit-identical to training it by itself.
    ``val`` drives the schedules described in ``train_mlp`` and needs a
    single model.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("training set is empty")
    cfg = cfgs[0]
    if len(cfgs) != len(models) or any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("a stack needs one config per model, differing only in seed")
    topology = models[0].topology
    if any(m.topology != topology for m in models):
        raise ValueError("a stack needs models of one topology")
    if val is not None and len(models) > 1:
        raise ValueError("validation-driven training takes one model at a time")
    flat = models[0].flat if len(models) == 1 else np.stack([m.flat for m in models])
    lead = flat.shape[:-1]
    grad = np.zeros_like(flat)
    layers = _network(flat, topology, grad, cfg.dropout)
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    draws = rngs[0] if len(rngs) == 1 else _PerModelRandom(rngs)
    opt = Adam([flat], lr=cfg.lr)
    hists = [TrainHistory() for _ in models]
    n = x.shape[0]
    best_acc = -1.0
    best_flat = None
    stale = 0

    for epoch in range(1, cfg.epochs + 1):
        order = np.reshape([rng.permutation(n) for rng in rngs], lead + (n,))
        epoch_loss = np.zeros(lead)
        for start in range(0, n, cfg.batch_size):
            idx = order[..., start : start + cfg.batch_size]
            loss_val = _loss_and_grads(layers, x[idx], y[idx], draws)
            opt.step([flat], [grad])
            epoch_loss += loss_val * idx.shape[-1]
        accs = np.mean(_labels(_predict(layers, x)) == y, axis=-1)
        for hist, loss_s, acc_s in zip(hists, np.atleast_1d(epoch_loss / n), np.atleast_1d(accs)):
            hist.train_loss.append(float(loss_s))
            hist.train_acc.append(float(acc_s))
            hist.stopped_epoch = epoch

        if val is None:
            continue
        hist = hists[0]
        acc = model_accuracy(models[0], val[0], val[1])
        hist.val_acc.append(acc)
        if acc > best_acc:
            best_acc = acc
            hist.best_epoch = epoch
            stale = 0
            if cfg.restore_best:
                best_flat = flat.copy()
        else:
            stale += 1
            if cfg.lr_halve_after is not None and stale == cfg.lr_halve_after:
                opt.lr *= 0.5
            if cfg.early_stop_patience is not None and stale >= cfg.early_stop_patience:
                break

    if best_flat is not None:
        flat[...] = best_flat
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
    topo = validate_topology(d["topology"])
    weights = [np.asarray(w, dtype=np.float64) for w in d["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in d["biases"]]
    for i, (fan_in, fan_out) in enumerate(zip(topo[:-1], topo[1:])):
        if weights[i].shape != (fan_in, fan_out) or biases[i].shape != (fan_out,):
            raise ValueError(f"layer {i} arrays do not match topology {topo}")
    return MlpModel(topo, weights, biases)
