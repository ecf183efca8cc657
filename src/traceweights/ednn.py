"""Encoder-decoder network that maps reduced traces to weight matrices.

Architecture: a dense encoder feeds a 1-channel signal through three
valid convolutions, two transposed convolutions widen it back (each
followed by dropout 0.5 during training), and a final dense layer emits
the flattened matrix image.  All activations are relu; the output is
linear.  The "paper" scale uses 256 dense units and 256/128/64 + 256/128
channels; the "desk" scale halves every width.

The network holds, trains and runs its parameters in float32.  The traces
it reads (through PCA) and the matrices it learns are float32 values, a
12-bit ADC's samples and the pair containers' storage, so float64
arithmetic would add cost and no information.  ``forward`` and
``train_ednn`` cast what they are given; PCA and standardizing stay float64.

Memory.  A built model's parameters and gradient are the two rows of one
block, and ``nn.Adam`` keeps both moments in another: 45-54 MB each at
desk widths, above glibc's 32 MB cap on its dynamic mmap threshold, so
each is mapped alone and unmapped whole when freed.  Four 23-27 MB
vectors per training run would raise that threshold to their size, and a
process that fits a translator per task would grow its heap by tens of MB.

Training is ``nn.train`` on the MSE loss, with validation accuracy
against a threshold theta as its target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError
from .nn import (
    Conv1D,
    ConvTranspose1D,
    Dense,
    Dropout,
    ParamLayer,
    ReLU,
    Reshape,
    TrainConfig,
    bind_layers,
    forward,
    mse_loss,
    train,
)

__all__ = [
    "EdnnModel",
    "EdnnTrainConfig",
    "EdnnHistory",
    "build_ednn",
    "ednn_from_vector",
    "ednn_accuracy",
    "train_ednn",
    "predict_weights",
]

_SCALES = {
    "paper": {"dense": 256, "conv": (256, 128, 64), "deconv": (256, 128)},
    "desk": {"dense": 128, "conv": (128, 64, 32), "deconv": (128, 64)},
}
_CONV_KERNELS = (4, 4, 4)
_DECONV_KERNELS = (5, 4)
_DROPOUT = 0.5
# the dtype of the parameters, their gradients, and every activation
_DTYPE = np.float32


@dataclass
class EdnnModel:
    """Layers whose ``w``/``b`` and grads are views into ``flat``/``flat_grad``.

    Both vectors are float32 and hold the parameters layer by layer, weight
    before bias, each in C order.  A built model's ``flat`` and
    ``flat_grad`` are the two rows of one (2, size) block; one laid over a
    checkpoint's vector gets a gradient vector of its own.
    """

    layers: list
    input_len: int
    rows: int
    cols: int
    scale: str
    flat: np.ndarray = field(repr=False)
    flat_grad: np.ndarray = field(repr=False)

    def forward(self, x, train=False, rng=None):
        return forward(self.layers, np.atleast_2d(np.asarray(x, dtype=_DTYPE)), train, rng)

    def param_vector(self) -> np.ndarray:
        return self.flat.copy()


def build_ednn(input_len: int, output_shape: tuple[int, int], scale: str, seed: int) -> EdnnModel:
    """Fresh model for ``input_len`` features and a (rows, cols) output."""
    return _ednn(input_len, output_shape, scale, None, np.random.default_rng(seed))


def ednn_from_vector(input_len, output_shape, scale, flat: np.ndarray) -> EdnnModel:
    """The model whose layers are views of ``flat``, laid out as ``EdnnModel.flat``.

    ``flat`` must be float32; ValueError rather than a silent copy otherwise.
    """
    return _ednn(input_len, output_shape, scale, flat, None)


def _ednn(input_len, output_shape, scale, flat, rng) -> EdnnModel:
    # with flat None, flat and flat_grad are the rows of a new (2, size) block, and rng draws
    # the init into flat
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}, expected one of {sorted(_SCALES)}")
    if input_len < 16:
        raise ValueError(f"input_len must be >= 16, got {input_len}")
    rows, cols = int(output_shape[0]), int(output_shape[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"bad output shape {(rows, cols)}")
    widths = _SCALES[scale]

    layers: list = [Dense(input_len, widths["dense"], None), ReLU(), Reshape(1, -1)]
    length = widths["dense"]
    c_prev = 1
    for c_out, k in zip(widths["conv"], _CONV_KERNELS):
        layers += [Conv1D(c_prev, c_out, k, None), ReLU()]
        length = Conv1D.out_len(length, k)
        c_prev = c_out
    for c_out, k in zip(widths["deconv"], _DECONV_KERNELS):
        layers += [ConvTranspose1D(c_prev, c_out, k, None), ReLU(), Dropout(_DROPOUT)]
        length = ConvTranspose1D.out_len(length, k)
        c_prev = c_out
    layers += [Reshape(-1), Dense(c_prev * length, rows * cols, None), Reshape(rows, cols)]
    size = sum(layer.size for layer in layers if isinstance(layer, ParamLayer))
    if flat is None:
        flat, flat_grad = np.zeros((2, size), _DTYPE)
    elif flat.shape != (size,):
        raise ValueError(f"checkpoint holds {flat.size} params, model has {size}")
    elif flat.dtype != _DTYPE:
        raise ValueError(f"checkpoint params are {flat.dtype}, the model's are {np.dtype(_DTYPE)}")
    else:
        flat_grad = np.zeros(size, _DTYPE)
    bind_layers(layers, flat, flat_grad, rng)
    return EdnnModel(layers=layers, input_len=input_len, rows=rows, cols=cols, scale=scale,
                     flat=flat, flat_grad=flat_grad)


def ednn_accuracy(pred, truth, tau: float = 0.05, mask: Optional[np.ndarray] = None) -> float:
    """Fraction of counted entries recovered within absolute tolerance tau.

    ``mask`` marks the entries that carry coefficients; without it every
    entry counts.  Batched inputs average over the whole batch.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    hit = np.abs(p - t) <= tau
    if mask is None:
        return float(hit.mean())
    m = np.broadcast_to(mask, hit.shape)
    return float(hit[m].mean())


@dataclass
class EdnnTrainConfig:
    epochs: int = 100
    batch_size: int = 100
    lr: float = 0.001
    tau: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not self.tau >= 0:
            raise ValueError(f"tau must be >= 0, got {self.tau!r}")
        self.schedule()  # the rules every TrainConfig checks

    def schedule(self) -> TrainConfig:
        """``nn.train``'s settings for this translator run."""
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size, lr=self.lr,
                           seed=self.seed)


@dataclass
class EdnnHistory:
    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    reached_theta: bool = False
    epochs_run: int = 0


def train_ednn(model: EdnnModel, x_train: np.ndarray, y_train: np.ndarray, cfg: EdnnTrainConfig,
               theta: float, val: Optional[tuple[np.ndarray, np.ndarray]] = None,
               mask: Optional[np.ndarray] = None, log=None) -> EdnnHistory:
    """MSE training with ``nn.train``; stops once validation accuracy reaches theta.

    Each call starts fresh Adam moments.  Pairs are cast to float32 once, here.
    """
    x_train = np.asarray(x_train, dtype=_DTYPE)
    y_train = np.asarray(y_train, dtype=_DTYPE)
    if x_train.shape[0] != y_train.shape[0] or x_train.shape[0] == 0:
        raise ValueError("training pairs are empty or misaligned")
    (hist,) = train(
        model.layers, model.flat, model.flat_grad, x_train,
        lambda pred, idx: mse_loss(pred, y_train[idx]), [cfg.schedule()],
        val_score=None if val is None else (
            lambda: ednn_accuracy(model.forward(val[0], train=False), val[1], cfg.tau, mask)),
        target=theta, log=log)
    return EdnnHistory(hist.train_loss, hist.val_acc, hist.reached_target, hist.stopped_epoch)


def predict_weights(model: EdnnModel, reduced: np.ndarray) -> np.ndarray:
    """Matrix predictions with dropout off; finite by construction check."""
    single = np.ndim(reduced) == 1
    out = model.forward(np.atleast_2d(reduced), train=False)
    if not np.all(np.isfinite(out)):
        raise NumericalError("prediction produced non-finite values")
    return out[0] if single else out

