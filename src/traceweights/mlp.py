"""Fully connected classifier models and their training loop.

Hidden layers use relu.  The output head is a single sigmoid unit for
binary tasks and a softmax row for anything wider.  Training is Adam on
cross-entropy with optional inverted dropout after each hidden layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .nn import (
    Adam,
    pack,
    relu,
    relu_grad,
    sigmoid,
    sigmoid_grad,
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
    "predict_probs",
    "predict_labels",
    "model_accuracy",
    "train_mlp",
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
        self.flat, views = pack([a for wb in zip(self.weights, self.biases) for a in wb])
        self.weights, self.biases = views[0::2], views[1::2]

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


def _forward_cached(model, x, dropout=0.0, rng=None):
    """Returns (output, pre_activations, activations, dropout_scales)."""
    a = x
    acts = [x]
    zs = []
    masks = []
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        zs.append(z)
        if i < last:
            a = relu(z)
            if dropout > 0.0:
                mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
        else:
            a = sigmoid(z) if model.topology[-1] == 1 else softmax(z)
        acts.append(a)
    return a, zs, acts, masks


def mlp_forward(model, x, train=False, dropout=0.0, rng=None):
    """Probabilities for a (d,) vector or (n, d) batch."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out, _, _, _ = _forward_cached(
        model, x2, dropout=dropout if train else 0.0, rng=rng
    )
    return out[0] if np.ndim(x) == 1 else out


def mlp_backward(model, x, targets, loss="xent", dropout=0.0, rng=None):
    """Loss and parameter gradients for one batch.

    loss "xent": ``targets`` are integer labels.
    loss "mse":  ``targets`` matches the output activation shape, and the
    gradient is chained through the output nonlinearity.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    out, zs, acts, masks = _forward_cached(model, x, dropout=dropout, rng=rng)

    if loss == "xent":
        labels = np.asarray(targets, dtype=np.int64)
        if model.topology[-1] == 1:
            probs2 = np.hstack([1.0 - out, out])
            loss_val = cross_entropy_from_probs(probs2, labels)
            dz = (out - labels[:, None]) / n
        else:
            loss_val = cross_entropy_from_probs(out, labels)
            onehot = np.zeros_like(out)
            onehot[np.arange(n), labels] = 1.0
            dz = (out - onehot) / n
    elif loss == "mse":
        t = np.asarray(targets, dtype=np.float64).reshape(out.shape)
        diff = out - t
        loss_val = float(np.sum(diff * diff) / n)
        dout = (2.0 / n) * diff
        if model.topology[-1] == 1:
            dz = dout * sigmoid_grad(zs[-1])
        else:
            # softmax jacobian row by row: p * (g - <g, p>)
            inner = np.sum(dout * out, axis=1, keepdims=True)
            dz = out * (dout - inner)
    else:
        raise ValueError(f"unknown loss {loss!r}")

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ model.weights[i].T
            if masks[i - 1] is not None:
                da = da * masks[i - 1]
            dz = da * relu_grad(zs[i - 1])
    return loss_val, grads_w, grads_b


def predict_probs(model, x):
    return mlp_forward(model, x, train=False)


def predict_labels(model, x):
    """Hard labels: argmax rows, or threshold 0.5 for the sigmoid head."""
    p = predict_probs(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    if model.topology[-1] == 1:
        return (p[:, 0] >= 0.5).astype(np.int64)
    return np.argmax(p, axis=1).astype(np.int64)


def model_accuracy(model, x, y):
    return float(np.mean(predict_labels(model, x) == np.asarray(y)))


@dataclass
class TrainConfig:
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
    end.  Epoch counters in the history are 1-based.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam([model.flat], lr=cfg.lr)
    hist = TrainHistory()
    best_acc = -1.0
    best_state = None
    stale = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss_val, gw, gb = mlp_backward(
                model, x[idx], y[idx], loss="xent", dropout=cfg.dropout, rng=rng
            )
            grad = np.concatenate([a.ravel() for wb in zip(gw, gb) for a in wb])
            opt.step([model.flat], [grad])
            epoch_loss += loss_val * len(idx)
        hist.train_loss.append(epoch_loss / x.shape[0])
        hist.train_acc.append(model_accuracy(model, x, y))
        hist.stopped_epoch = epoch

        if val is None:
            continue
        acc = model_accuracy(model, val[0], val[1])
        hist.val_acc.append(acc)
        if acc > best_acc:
            best_acc = acc
            hist.best_epoch = epoch
            stale = 0
            if cfg.restore_best:
                best_state = model.copy()
        else:
            stale += 1
            if cfg.lr_halve_after is not None and stale == cfg.lr_halve_after:
                opt.lr *= 0.5
            if cfg.early_stop_patience is not None and stale >= cfg.early_stop_patience:
                break

    if val is not None and cfg.restore_best and best_state is not None:
        model.flat[...] = best_state.flat
    return hist


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
