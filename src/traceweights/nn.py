"""Minimal neural-network engine on numpy: the one set of layers and the one training loop.

Every layer computes in the dtype of its own parameters: the EDNN holds
float32, every MLP float64.  Layers cache what their backward pass needs,
so the usage pattern is forward -> backward -> read ``grad_params``.
There is no autodiff: each layer kind carries a hand-written backward,
checked against central finite differences in the test suite.  The EDNN
is built from these layers, and so is every MLP (see ``mlp.py``):
``Dense`` works on the last two axes, so one layer whose weight has a
leading stack axis trains S same-topology models in step on an (S, n, f)
batch.  ``Reshape`` is the one layer that changes a sample's shape.

Training.  ``train`` is the one training loop: Adam on shuffled
mini-batches of the caller's layers and loss, under the validation
schedule of a ``TrainConfig``.  The EDNN and every MLP, stacked or alone,
train through it.

Signal layout.  Conv1D and ConvTranspose1D take and return (n, c, l)
arrays but run the whole batch as one channel-major signal: a
C-contiguous (c, n * pitch) buffer whose row ch holds channel ch of every
sample end to end, sample i in columns i * pitch .. i * pitch + l - 1,
followed by pitch - l zero columns (its tail).  Each layer returns an
(n, c, l) view of such a buffer and reads one it is given in place, so
activations pass from conv layer to conv layer without a transpose copy,
and every kernel tap is one matrix product over all n samples: a shifted
slice that runs into the next sample meets only tail zeros, or lands in
output columns that are zeroed afterwards.  ReLU and Dropout work in place
on these views.  An input laid out any other way is copied into a buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import NumericalError

__all__ = [
    "relu",
    "sigmoid",
    "softmax",
    "mse_loss",
    "cross_entropy_from_probs",
    "Adam",
    "DivergenceError",
    "TrainConfig",
    "TrainHistory",
    "forward",
    "backprop",
    "train",
    "ParamLayer",
    "bind_layers",
    "Dense",
    "Conv1D",
    "ConvTranspose1D",
    "ReLU",
    "Dropout",
    "Reshape",
]


def relu(x):
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def sigmoid(x):
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0, else e^x / (1 + e^x)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x):
    """Softmax over the last axis."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def mse_loss(pred, target):
    """Mean over the batch of the squared L2 distance per sample.

    Returns (loss, dloss/dpred).  Entries beyond the first axis are
    summed, so a (n, r, c) prediction contributes the full Frobenius
    square per sample.  The gradient has the prediction's dtype.
    """
    pred = np.asarray(pred)
    n = pred.shape[0]
    diff = pred - np.asarray(target, dtype=pred.dtype)
    loss = float(np.sum(diff * diff) / n)
    return loss, (2.0 / n) * diff


def cross_entropy_from_probs(probs, labels):
    """Mean negative log-likelihood of integer labels under row probs.

    ``probs`` is (..., n, c) and ``labels`` (..., n); the mean runs over
    n, one per leading index.  A single column (c == 1) is a sigmoid
    head's probability of label 1.  Probabilities are floored at 1e-12.
    """
    labels = np.asarray(labels)[..., None]
    if probs.shape[-1] == 1:
        p = np.where(labels == 1, probs, 1.0 - probs)[..., 0]
    else:
        p = probs[labels == np.arange(probs.shape[-1])].reshape(labels.shape[:-1])
    return -np.add.reduce(np.log(np.maximum(p, 1e-12)), axis=-1) / p.shape[-1]


# Elements per Adam block: the block's slices of p, g, m, v and the two
# scratch buffers stay in cache while the update runs over them.  A
# float32 init draws its doubles in pieces of the same size.
_ADAM_BLOCK = 32768


class Adam:
    """Adam optimizer over a list of parameter arrays, updated in place.

    Standard bias-corrected form: p -= lr * m_hat / (sqrt(v_hat) + eps).
    ``lr`` is a plain attribute so schedules can mutate it between steps.
    Each array is stepped in blocks of ``_ADAM_BLOCK`` elements through two
    scratch buffers, so a step allocates nothing; per element the arithmetic
    and its order are those of the formula above, in the parameters' dtype.
    Parameter arrays must be C-contiguous, since the update writes through a
    flat view of each, and share one dtype.

    ``m[i]`` and ``v[i]`` are views of the two rows of one zeroed block of
    that dtype, so the moments are one allocation (see ``ednn`` on memory).
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("Adam needs C-contiguous parameter arrays")
        if len({p.dtype for p in params}) > 1:
            raise ValueError("Adam needs parameter arrays of one dtype")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        dtype = params[0].dtype if params else np.float64
        sizes = [p.size for p in params]
        moments = np.zeros((2, sum(sizes)), dtype)
        cuts = np.cumsum(sizes)[:-1]
        self.m = np.split(moments[0], cuts)
        self.v = np.split(moments[1], cuts)
        width = min(_ADAM_BLOCK, max(sizes, default=0))
        self._a = np.empty(width, dtype)
        self._b = np.empty(width, dtype)

    def step(self, params, grads):
        self.t += 1
        b1, b2, eps, lr = self.beta1, self.beta2, self.eps, self.lr
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            p, g = p.reshape(-1), g.reshape(-1)
            for lo in range(0, p.size, _ADAM_BLOCK):
                hi = lo + _ADAM_BLOCK
                pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                a, b = self._a[: pb.size], self._b[: pb.size]
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=a)
                mb += a
                vb *= b2
                np.multiply(gb, gb, out=a)
                a *= 1.0 - b2
                vb += a
                np.divide(vb, c2, out=a)
                np.sqrt(a, out=a)
                a += eps
                np.divide(mb, c1, out=b)
                b *= lr
                b /= a
                pb -= b


def _uniform_fan_in(rng, fan_in, out):
    """Fill ``out`` in place with the doubles ``rng.uniform(-bound, bound)`` gives.

    bound = sqrt(1/fan_in).  ``out`` must be C-contiguous.  A float32
    ``out`` gets the same doubles, rounded to nearest: they are drawn
    ``_ADAM_BLOCK`` at a time into one reused buffer, so no float64 copy
    of the whole of ``out`` is made.
    """
    bound = math.sqrt(1.0 / fan_in)
    if out.dtype == np.float64:
        _uniform_into(rng, bound, out)
        return
    if not out.flags.c_contiguous:
        raise ValueError("the init draws into a C-contiguous array")
    whole = out.reshape(-1)
    buf = np.empty(min(_ADAM_BLOCK, whole.size))
    for lo in range(0, whole.size, _ADAM_BLOCK):
        piece = whole[lo : lo + _ADAM_BLOCK]
        piece[...] = _uniform_into(rng, bound, buf[: piece.size])


def _uniform_into(rng, bound, out):
    """``rng.uniform(-bound, bound)``'s doubles, drawn into the float64 ``out``."""
    rng.random(out=out)
    out *= bound - -bound
    out += -bound
    return out


class ParamLayer:
    """A layer with one weight and one bias array, uniform in +-sqrt(1/fan_in).

    A layer built with an ``rng`` owns fresh arrays and is initialized at
    once.  One built with ``rng=None`` has no parameters until ``bind``
    (as a rule through ``bind_layers``) gives it storage, which lets a
    model keep every layer in one vector.
    """

    def _setup(self, fan_in, w_shape, b_shape, rng):
        self.fan_in = fan_in
        self.w_shape = w_shape
        self.size = math.prod(w_shape) + math.prod(b_shape)
        if rng is not None:
            self.bind(np.empty(self.size), np.zeros(self.size), rng)

    def bind(self, flat, flat_grad, rng):
        """Point ``w``/``b`` and their grads at ``flat``/``flat_grad``; an ``rng`` draws the init.

        The last axis holds ``size`` elements: the weight, then the bias, C
        order, so one draw over ``flat`` inits both.  A leading axis of S
        makes S stacked layers, one per row; the init draw needs a single one.
        With ``flat_grad`` None the layer runs forward only.
        """
        n, shape = math.prod(self.w_shape), flat.shape[:-1] + self.w_shape
        self.w, self.b = self.params = [flat[..., :n].reshape(shape), flat[..., n:]]
        self.grad_params = None if flat_grad is None else [
            flat_grad[..., :n].reshape(shape), flat_grad[..., n:]]
        if rng is not None:
            _uniform_fan_in(rng, self.fan_in, flat)


def bind_layers(layers, flat, grad, rng=None):
    """Lay each ``ParamLayer`` of ``layers`` over the next slice of ``flat``/``grad``'s last axis.

    ``flat`` is one model's (P,) vector or S models' (S, P) block, and
    ``grad`` is None (forward only) or has its shape.  An ``rng`` draws
    each layer's init in layer order, weight before bias.  ValueError when
    the layers' sizes do not add up to P.
    """
    owners = [layer for layer in layers if isinstance(layer, ParamLayer)]
    size = sum(layer.size for layer in owners)
    if flat.shape[-1] != size:
        raise ValueError(f"the layers take {size} params, the vector holds {flat.shape[-1]}")
    at = 0
    for layer in owners:
        part = slice(at, at + layer.size)
        layer.bind(flat[..., part], None if grad is None else grad[..., part], rng)
        at += layer.size


class Dense(ParamLayer):
    """Affine layer on the last two axes: (..., n, fan_in) -> (..., n, fan_out).

    Bound (S, fan_in, fan_out) weights and (S, fan_out) biases make it S
    layers at once, one per leading index; the input is then an (S, n,
    fan_in) batch, or an (n, fan_in) one that every layer of the stack reads.
    """

    def __init__(self, fan_in, fan_out, rng):
        self._setup(fan_in, (fan_in, fan_out), (fan_out,), rng)
        self._x = None

    def forward(self, x, train=False, rng=None):
        self._x = x
        z = np.matmul(x, self.w)
        z += self.b[..., None, :]
        return z

    def backward(self, dout):
        self.backward_params(dout)
        return np.matmul(dout, self.w.swapaxes(-1, -2))

    def backward_params(self, dout):
        """``backward`` without the input gradient: writes ``grad_params`` only."""
        np.matmul(self._x.swapaxes(-1, -2), dout, out=self.grad_params[0])
        np.add.reduce(dout, axis=-2, out=self.grad_params[1])  # np.sum minus its wrapper


def forward(layers, x, train=False, rng=None):
    """Every layer's forward pass, first layer first; an ``rng`` with ``train`` drives dropout."""
    for layer in layers:
        x = layer.forward(x, train=train, rng=rng)
    return x


def backprop(layers, dout):
    """Every layer's backward pass, last layer first, for the loss gradient ``dout``.

    ``layers[0]`` is a Dense whose input is the network's input, so only its
    parameter gradients are computed: nothing reads the input gradient.
    """
    for layer in reversed(layers[1:]):
        dout = layer.backward(dout)
    layers[0].backward_params(dout)


def _buffer_of(x):
    """The zero-tailed channel-major buffer that ``x`` views, and its pitch.

    ``x`` (n, c, l) views a buffer when one C-contiguous array of its
    dtype, read as (c, n * pitch) with pitch >= l, holds x[i, ch, t] at row
    ch, column i * pitch + t, and its other columns (each sample's tail)
    are zero.  Returns ``(buffer, pitch)``, or None when ``x`` is anything
    else.
    """
    n, c, l = x.shape
    base = x if x.base is None else x.base
    item = x.itemsize
    s_n, s_c, s_l = x.strides
    if (not isinstance(base, np.ndarray) or base.dtype != x.dtype
            or not base.flags.c_contiguous or s_l != item or s_n % item or s_n < item * l):
        return None
    pitch = s_n // item
    if (c > 1 and s_c != item * n * pitch) or base.size != c * n * pitch:
        return None
    if x.__array_interface__["data"][0] != base.__array_interface__["data"][0]:
        return None
    buf = base.reshape(c, n * pitch)
    if l < pitch and buf.reshape(c, n, pitch)[:, :, l:].any():
        return None
    return buf, pitch


def _signal(x, dtype, step=1, pitch=None, at_least=0):
    """``x`` (n, c, l) as a zero-tailed channel-major ``dtype`` buffer; returns (buffer, pitch).

    Sample i's position t sits in column i * pitch + t * step, and every
    other column is zero.  The pitch is ``pitch`` if given, else any value
    >= ``at_least`` and >= the span (l - 1) * step + 1.  With step 1 the
    buffer ``x`` already views is used when its dtype and pitch qualify;
    otherwise ``x`` is copied into a new one.
    """
    n, c, l = x.shape
    span = (l - 1) * step + 1
    if step == 1 and x.dtype == dtype:
        found = _buffer_of(x)
        if found is not None and (found[1] == pitch if pitch else found[1] >= at_least):
            return found
    pitch = pitch or max(span, at_least)
    buf = np.zeros((c, n * pitch), dtype)
    _view(buf, n, span, step)[...] = x
    return buf, pitch


def _whole(x):
    """The buffer ``x`` views, tails included, or ``x`` itself.

    Elementwise maps that send 0 to 0 can run on it in one pass.
    """
    found = _buffer_of(x) if x.ndim == 3 else None
    return x if found is None else found[0]


def _view(buf, n, length, step=1):
    """(n, c, length) view of every ``step``-th column of each sample of ``buf``."""
    return buf.reshape(buf.shape[0], n, -1)[:, :, :length:step].transpose(1, 0, 2)


def _zero_tails(buf, n, length):
    buf.reshape(buf.shape[0], n, -1)[:, :, length:] = 0.0


def _tap_sum(taps, x, direction):
    """out[:, j] = sum_k taps[k] @ x[:, j + direction * k] over the whole batch.

    ``taps`` is (kernel, rows, depth), ``x`` is (depth, cols) and
    ``direction`` is +1 (correlation) or -1 (convolution, its adjoint);
    columns of ``x`` outside [0, cols) read as zero; ``out`` has the dtype
    of ``taps``.  The shifts are done on whichever side has fewer rows:
    with depth < rows, the kernel shifted copies of ``x`` are stacked along
    the contraction for one product; otherwise each tap is one product
    whose result is added into ``out`` at its shift.
    """
    kernel, rows, depth = taps.shape
    cols = x.shape[1]

    def shifted(k):  # (columns of out, columns of x) that tap k pairs up
        if direction > 0:
            return slice(0, cols - k), slice(k, cols)
        return slice(k, cols), slice(0, cols - k)

    out = np.empty((rows, cols), taps.dtype)
    if depth < rows:
        stacked = np.zeros((kernel, depth, cols), taps.dtype)
        for k in range(kernel):
            at, src = shifted(k)
            stacked[k, :, at] = x[:, src]
        flat_taps = taps.transpose(1, 0, 2).reshape(rows, kernel * depth)
        return np.matmul(flat_taps, stacked.reshape(kernel * depth, cols), out=out)
    np.matmul(taps[0], x, out=out)
    tmp = np.empty((rows, cols), taps.dtype)
    for k in range(1, kernel):
        at, src = shifted(k)
        part = np.matmul(taps[k], x[:, src], out=tmp[:, : cols - k])
        out[:, at] += part
    return out


def _tap_products(a, b, kernel):
    """out[k] = sum_j a[:, j] b[:, j + k]^T for each tap k: the weight gradient."""
    cols = a.shape[1]
    out = np.empty((kernel, a.shape[0], b.shape[0]), a.dtype)
    for k in range(kernel):
        np.matmul(a[:, : cols - k], b[:, k:].T, out=out[k])
    return out


class Conv1D(ParamLayer):
    """Valid (no padding) 1-d convolution: (n, c_in, l) -> (n, c_out, l_out).

    l_out = (l - kernel) // stride + 1.  Weights are (c_out, c_in, kernel).
    The batch runs as one channel-major signal (see the module docstring),
    so each tap is one matrix product over every sample.  A stride above 1
    runs the stride-1 convolution and keeps every stride-th output.
    """

    def __init__(self, c_in, c_out, kernel, rng, stride=1):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        self.kernel = kernel
        self.stride = stride
        self._setup(c_in * kernel, (c_out, c_in, kernel), (c_out,), rng)
        self._x = None

    @staticmethod
    def out_len(l, kernel, stride=1):
        if l < kernel:
            raise ValueError(f"input length {l} shorter than kernel {kernel}")
        return (l - kernel) // stride + 1

    def forward(self, x, train=False, rng=None):
        n, _, l = x.shape
        full = self.out_len(l, self.kernel)
        xb, pitch = _signal(x, self.w.dtype)
        self._x, self._n, self._pitch, self._in_len = xb, n, pitch, l
        out = _tap_sum(np.moveaxis(self.w, 2, 0), xb, +1)
        out += self.b[:, None]
        _zero_tails(out, n, full)
        return _view(out, n, full, self.stride)

    def backward(self, dout):
        n, pitch, kernel = self._n, self._pitch, self.kernel
        dy, _ = _signal(dout, self.w.dtype, self.stride, pitch=pitch)
        self.grad_params[0][...] = np.moveaxis(_tap_products(dy, self._x, kernel), 0, 2)
        self.grad_params[1][...] = dy.sum(axis=1)
        dx = _tap_sum(np.moveaxis(self.w, 2, 0).transpose(0, 2, 1), dy, -1)
        return _view(dx, n, self._in_len)


class ConvTranspose1D(ParamLayer):
    """Transposed 1-d convolution: (n, c_in, l) -> (n, c_out, l_out).

    l_out = (l - 1) * stride + kernel.  Weights are (c_in, c_out, kernel).
    The forward pass is the adjoint of Conv1D's forward, so every input
    position spreads across ``kernel`` output positions.  A stride above 1
    inserts stride - 1 zeros between input positions and runs stride 1.
    """

    def __init__(self, c_in, c_out, kernel, rng, stride=1):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        self.kernel = kernel
        self.stride = stride
        self._setup(c_in * kernel, (c_in, c_out, kernel), (c_out,), rng)
        self._x = None

    @staticmethod
    def out_len(l, kernel, stride=1):
        return (l - 1) * stride + kernel

    def forward(self, x, train=False, rng=None):
        n, _, l = x.shape
        l_out = self.out_len(l, self.kernel, self.stride)
        xb, pitch = _signal(x, self.w.dtype, self.stride, at_least=l_out)
        self._x, self._n, self._pitch, self._in_len = xb, n, pitch, l
        out = _tap_sum(np.moveaxis(self.w, 2, 0).transpose(0, 2, 1), xb, -1)
        out += self.b[:, None]
        _zero_tails(out, n, l_out)
        return _view(out, n, l_out)

    def backward(self, dout):
        n, kernel = self._n, self.kernel
        dy, _ = _signal(dout, self.w.dtype, pitch=self._pitch)
        self.grad_params[0][...] = np.moveaxis(_tap_products(self._x, dy, kernel), 0, 2)
        self.grad_params[1][...] = dy.sum(axis=1)
        dx = _tap_sum(np.moveaxis(self.w, 2, 0), dy, +1)
        span = (self._in_len - 1) * self.stride + 1
        _zero_tails(dx, n, span)
        return _view(dx, n, span, self.stride)


class ReLU:
    """max(x, 0), computed in place on the input.

    A channel-major signal is processed as its whole buffer, zero tails
    included, which relu leaves zero.
    """

    params: list = []
    grad_params: list = []

    def __init__(self):
        self._x = None

    def forward(self, x, train=False, rng=None):
        self._x = x
        whole = _whole(x)
        np.maximum(whole, 0.0, out=whole)
        return x

    def backward(self, dout):
        d, out = _whole(dout), _whole(self._x)
        if d.shape != out.shape:
            d, out = dout, self._x
        # out > 0 exactly where the input was > 0
        np.multiply(d, out > 0.0, out=d)
        return dout


class Dropout:
    """Inverted dropout layer, in place on its input; identity when not training.

    The keep decisions come from ``rng.random(x.shape)``, float64 draws in
    (n, c, l) order whatever the input's memory layout or dtype; the mask
    has the input's dtype.
    """

    params: list = []
    grad_params: list = []

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        draws = rng.random(x.shape)
        mask = draws if x.dtype == draws.dtype else np.empty(x.shape, x.dtype)
        scale = x.dtype.type(1.0 / (1.0 - self.rate))  # so a float32 mask takes a float32 loop
        self._mask = np.multiply(draws >= self.rate, scale, out=mask)
        return np.multiply(x, self._mask, out=x)

    def backward(self, dout):
        if self._mask is None:
            return dout
        return np.multiply(dout, self._mask, out=dout)


class Reshape:
    """(n, ...) -> (n, *shape): each sample reshaped; a -1 in ``shape`` is inferred."""

    params: list = []
    grad_params: list = []

    def __init__(self, *shape):
        self.shape = shape
        self._in_shape = None

    def forward(self, x, train=False, rng=None):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], *self.shape)

    def backward(self, dout):
        return dout.reshape(self._in_shape)


class DivergenceError(NumericalError):
    """A training loss or parameter went non-finite in 1-based epoch ``epoch``."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}: loss or parameters not finite")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run: ``train``'s schedule, the MLP dropout rate, the seed."""

    epochs: int
    batch_size: int = 16
    lr: float = 0.003
    dropout: float = 0.0
    seed: int = 0
    early_stop_patience: Optional[int] = None
    lr_halve_after: Optional[int] = None
    restore_best: bool = False

    def __post_init__(self):
        # plain comparisons only: train and prepare_pairs rebuild one per stacked model
        for name, rule, ok in (
            ("epochs", ">= 1", self.epochs >= 1),
            ("batch_size", ">= 1", self.batch_size >= 1),
            ("lr", "> 0", self.lr > 0),
            ("dropout", "in [0, 1)", 0 <= self.dropout < 1),
            ("early_stop_patience", "None or >= 1",
             self.early_stop_patience is None or self.early_stop_patience >= 1),
            ("lr_halve_after", "None or >= 1",
             self.lr_halve_after is None or self.lr_halve_after >= 1),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class TrainHistory:
    """Per-epoch records of one model; epoch counters are 1-based."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    reached_target: bool = False


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


def train(layers, flat, grad, x, loss, cfgs, train_score=None, val_score=None, target=None,
          log=None) -> list[TrainHistory]:
    """Adam on shuffled mini-batches of ``x``, in place on ``flat``; one history per model.

    ``flat`` is one model's (P,) vector or S models' (S, P) block, and
    ``layers`` run over views of it and of ``grad``.  ``cfgs`` holds one
    config per model, differing only in ``seed``; each model draws from
    its own generator what it would alone: a permutation per epoch, then
    each batch's dropout draws.  ``loss(out, idx)`` gives batch ``idx``'s
    mean loss per model and its gradient for the layers' output; a
    non-finite loss, or non-finite parameters after an epoch, raise
    ``DivergenceError``.  Per epoch, ``train_score()`` is recorded as
    ``train_acc``, and ``val_score()`` (one model only) as ``val_acc``.
    The latter drives the schedule: lr halves after ``lr_halve_after``
    epochs without a new best, training stops after ``early_stop_patience``
    of them or once the score reaches ``target``, and ``restore_best``
    ends on the best epoch's parameters.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("a stack needs one config per model, differing only in seed")
    if val_score is not None and len(cfgs) > 1:
        raise ValueError("validation-driven training takes one model at a time")
    lead, n = flat.shape[:-1], x.shape[0]
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    draws = rngs[0] if len(rngs) == 1 else _PerModelRandom(rngs)
    opt = Adam([flat], lr=cfg.lr)
    hists = [TrainHistory() for _ in cfgs]
    hist = hists[0]
    best_acc, best_flat, stale = -1.0, None, 0

    for epoch in range(1, cfg.epochs + 1):
        order = np.reshape([rng.permutation(n) for rng in rngs], lead + (n,))
        epoch_loss = np.zeros(lead)
        for start in range(0, n, cfg.batch_size):
            idx = order[..., start : start + cfg.batch_size]
            loss_val, dout = loss(forward(layers, x[idx], train=True, rng=draws), idx)
            if not np.isfinite(loss_val).all():
                raise DivergenceError(epoch)
            backprop(layers, dout)
            opt.step([flat], [grad])
            epoch_loss += loss_val * idx.shape[-1]
        if not np.isfinite(flat).all():  # a finite loss can still step an infinite gradient
            raise DivergenceError(epoch)
        for h, loss_s in zip(hists, np.atleast_1d(epoch_loss / n)):
            h.train_loss.append(float(loss_s))
            h.stopped_epoch = epoch
        if train_score is not None:
            for h, acc_s in zip(hists, np.atleast_1d(train_score())):
                h.train_acc.append(float(acc_s))

        line = f"epoch={epoch} loss={hist.train_loss[-1]:.5f}"
        if val_score is None:
            if log is not None:
                log(line)
            continue
        acc = val_score()
        hist.val_acc.append(acc)
        if log is not None:
            log(f"{line} val_acc={acc:.4f}")
        if acc > best_acc:
            best_acc, hist.best_epoch, stale = acc, epoch, 0
            if cfg.restore_best:
                best_flat = flat.copy()
        else:
            stale += 1
            if stale == cfg.lr_halve_after:
                opt.lr *= 0.5
        if target is not None and acc >= target:
            hist.reached_target = True
            break
        if cfg.early_stop_patience is not None and stale >= cfg.early_stop_patience:
            break

    if best_flat is not None:
        flat[...] = best_flat
    return hists
