"""Minimal neural-network engine on numpy.

Float64 throughout.  Layers cache what their backward pass needs, so the
usage pattern is forward -> backward -> read ``grad_params``.  There is no
autodiff: each layer kind carries a hand-written backward, checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "relu",
    "relu_grad",
    "sigmoid",
    "softmax",
    "mse_loss",
    "cross_entropy_from_probs",
    "dropout_apply",
    "Adam",
    "pack",
    "ParamLayer",
    "Dense",
    "Conv1D",
    "ConvTranspose1D",
    "ReLU",
    "Dropout",
    "Flatten",
    "ReshapeToSignal",
    "ReshapeToMatrix",
]


def relu(x):
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_grad(x):
    """Derivative of relu wrt its input (0 at the kink)."""
    return (x > 0.0).astype(np.float64)


def sigmoid(x):
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x):
    """Softmax over the last axis."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def mse_loss(pred, target):
    """Mean over the batch of the squared L2 distance per sample.

    Returns (loss, dloss/dpred).  Entries beyond the first axis are
    summed, so a (n, r, c) prediction contributes the full Frobenius
    square per sample.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = pred.shape[0]
    diff = pred - target
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
    return -np.mean(np.log(np.clip(p, 1e-12, None)), axis=-1)


def dropout_apply(x, rate, rng):
    """Inverted dropout: zero with probability ``rate``, rescale the rest.

    rate == 0 is an exact identity and consumes no randomness.
    """
    if rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate)


# Elements per Adam block: the block's slices of p, g, m, v and the two
# scratch buffers stay in cache while the update runs over them.
_ADAM_BLOCK = 32768


class Adam:
    """Adam optimizer over a list of parameter arrays, updated in place.

    Standard bias-corrected form: p -= lr * m_hat / (sqrt(v_hat) + eps).
    ``lr`` is a plain attribute so schedules can mutate it between steps.
    Each array is stepped in blocks of ``_ADAM_BLOCK`` elements through two
    scratch buffers, so a step allocates nothing; per element the arithmetic
    and its order are those of the formula above.  Parameter arrays must be
    C-contiguous, since the update writes through a flat view of each.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("Adam needs C-contiguous parameter arrays")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(p.size) for p in params]
        self.v = [np.zeros(p.size) for p in params]
        width = min(_ADAM_BLOCK, max((p.size for p in params), default=0))
        self._a = np.empty(width)
        self._b = np.empty(width)

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


def pack(arrays):
    """Copy ``arrays`` into one new contiguous float64 vector.

    Returns ``(flat, views)``: ``views[i]`` has the shape of ``arrays[i]``
    and is the C-order slice of ``flat`` that follows ``views[i - 1]``, so
    writing to a view writes to ``flat`` and the reverse.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    views = []
    at = 0
    for a in arrays:
        views.append(flat[at : at + a.size].reshape(a.shape))
        at += a.size
    return flat, views


def _uniform_fan_in(rng, fan_in, out):
    """Fill ``out`` in place with the doubles ``rng.uniform(-bound, bound)`` gives.

    bound = sqrt(1/fan_in).  ``out`` must be C-contiguous.
    """
    bound = np.sqrt(1.0 / fan_in)
    rng.random(out=out)
    out *= bound - -bound
    out += -bound


class ParamLayer:
    """A layer with one weight and one bias array, uniform in +-sqrt(1/fan_in).

    A layer built with an ``rng`` owns fresh arrays and is initialized at
    once.  One built with ``rng=None`` has no parameters until ``bind``
    gives it storage, which lets a model keep every layer in one vector.
    """

    def _setup(self, fan_in, w_shape, b_shape, rng):
        self.fan_in = fan_in
        self.w_shape = w_shape
        self.size = math.prod(w_shape) + math.prod(b_shape)
        if rng is not None:
            self.bind(np.empty(self.size), np.zeros(self.size), rng)

    def bind(self, flat, flat_grad, rng):
        """Point ``w``/``b`` and their grads at ``flat``/``flat_grad``, then draw the init.

        Each slice holds ``size`` elements: the weight, then the bias, C order.
        """
        n = math.prod(self.w_shape)
        self.w, self.b = self.params = [flat[:n].reshape(self.w_shape), flat[n:]]
        self.grad_params = [flat_grad[:n].reshape(self.w_shape), flat_grad[n:]]
        for p in self.params:
            _uniform_fan_in(rng, self.fan_in, p)


class Dense(ParamLayer):
    """Affine layer: (n, fan_in) -> (n, fan_out)."""

    def __init__(self, fan_in, fan_out, rng):
        self._setup(fan_in, (fan_in, fan_out), (fan_out,), rng)
        self._x = None

    def forward(self, x, train=False, rng=None):
        self._x = x
        return x @ self.w + self.b

    def backward(self, dout):
        self.grad_params[0][...] = self._x.T @ dout
        self.grad_params[1][...] = dout.sum(axis=0)
        return dout @ self.w.T


class Conv1D(ParamLayer):
    """Valid (no padding) 1-d convolution: (n, c_in, l) -> (n, c_out, l_out).

    l_out = (l - kernel) // stride + 1.  Weights are (c_out, c_in, kernel).
    """

    def __init__(self, c_in, c_out, kernel, rng, stride=1):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        self.kernel = kernel
        self.stride = stride
        self._setup(c_in * kernel, (c_out, c_in, kernel), (c_out,), rng)
        self._win = None
        self._in_len = None

    @staticmethod
    def out_len(l, kernel, stride=1):
        if l < kernel:
            raise ValueError(f"input length {l} shorter than kernel {kernel}")
        return (l - kernel) // stride + 1

    def forward(self, x, train=False, rng=None):
        self._in_len = x.shape[2]
        win = sliding_window_view(x, self.kernel, axis=2)[:, :, :: self.stride, :]
        self._win = win
        out = np.einsum("nclk,ock->nol", win, self.w, optimize=True)
        return out + self.b[None, :, None]

    def backward(self, dout):
        self.grad_params[0][...] = np.einsum(
            "nclk,nol->ock", self._win, dout, optimize=True
        )
        self.grad_params[1][...] = dout.sum(axis=(0, 2))
        n, _, l_out = dout.shape
        c_in = self.w.shape[1]
        dx = np.zeros((n, c_in, self._in_len), dtype=np.float64)
        # one scatter per kernel tap keeps this a handful of GEMMs
        for k in range(self.kernel):
            contrib = np.einsum("nol,oc->ncl", dout, self.w[:, :, k], optimize=True)
            dx[:, :, k : k + l_out * self.stride : self.stride] += contrib
        return dx


class ConvTranspose1D(ParamLayer):
    """Transposed 1-d convolution: (n, c_in, l) -> (n, c_out, l_out).

    l_out = (l - 1) * stride + kernel.  Weights are (c_in, c_out, kernel).
    The forward pass is the adjoint of Conv1D's forward, so every input
    position spreads across ``kernel`` output positions.
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
        self._x = x
        n, _, l = x.shape
        c_out = self.w.shape[1]
        l_out = self.out_len(l, self.kernel, self.stride)
        out = np.zeros((n, c_out, l_out), dtype=np.float64)
        for k in range(self.kernel):
            contrib = np.einsum("ncl,co->nol", x, self.w[:, :, k], optimize=True)
            out[:, :, k : k + l * self.stride : self.stride] += contrib
        return out + self.b[None, :, None]

    def backward(self, dout):
        x = self._x
        l = x.shape[2]
        dx = np.zeros_like(x)
        dw = self.grad_params[0]
        dw[...] = 0.0
        for k in range(self.kernel):
            sl = dout[:, :, k : k + l * self.stride : self.stride]
            dw[:, :, k] = np.einsum("ncl,nol->co", x, sl, optimize=True)
            dx += np.einsum("nol,co->ncl", sl, self.w[:, :, k], optimize=True)
        self.grad_params[1][...] = dout.sum(axis=(0, 2))
        return dx


class ReLU:
    params: list = []
    grad_params: list = []

    def __init__(self):
        self._x = None

    def forward(self, x, train=False, rng=None):
        self._x = x
        return relu(x)

    def backward(self, dout):
        return dout * relu_grad(self._x)


class Dropout:
    """Inverted dropout layer; identity when not training."""

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
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


class Flatten:
    params: list = []
    grad_params: list = []

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class ReshapeToSignal:
    """(n, f) -> (n, channels, f // channels)."""

    params: list = []
    grad_params: list = []

    def __init__(self, channels=1):
        self.channels = channels

    def forward(self, x, train=False, rng=None):
        n, f = x.shape
        return x.reshape(n, self.channels, f // self.channels)

    def backward(self, dout):
        return dout.reshape(dout.shape[0], -1)


class ReshapeToMatrix:
    """(n, rows * cols) -> (n, rows, cols)."""

    params: list = []
    grad_params: list = []

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols

    def forward(self, x, train=False, rng=None):
        return x.reshape(x.shape[0], self.rows, self.cols)

    def backward(self, dout):
        return dout.reshape(dout.shape[0], self.rows * self.cols)
