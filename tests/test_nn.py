"""Numerics of the hand-rolled layer zoo.

Gradient correctness is checked against central finite differences on
at least 100 randomized instances per layer kind.  Every loss used in
an FD check is affine or quadratic in the perturbed parameter, so the
central difference is exact up to rounding and the 1e-4 relative bound
is loose on purpose.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from traceweights import mlp
from traceweights.codec import coefficients_to_matrix, matrix_to_coefficients
from traceweights.ednn import build_ednn
from traceweights.mlp import (
    _cross_entropy,
    _network,
    MlpModel,
    TrainConfig,
    init_mlp,
    mlp_forward,
    model_from_dict,
    model_to_dict,
    predict_labels,
    train_mlp,
    train_mlp_stack,
    validate_topology,
)
from traceweights.nn import (
    _ADAM_BLOCK,
    _buffer_of,
    _uniform_fan_in,
    Adam,
    Conv1D,
    ConvTranspose1D,
    Dense,
    DivergenceError,
    Dropout,
    ReLU,
    Reshape,
    backprop,
    bind_layers,
    cross_entropy_from_probs,
    forward,
    mse_loss,
    relu,
    sigmoid,
    softmax,
)

FD_H = 1e-5
FD_REL = 1e-4


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def _fd_grad(loss_fn, arr, h=FD_H):
    """Central-difference gradient of loss_fn() w.r.t. every entry of arr."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return g


def _check_layer_grads(layer, x, arrays):
    """Quadratic loss 0.5*sum(out^2); backward must match FD on arrays and x."""

    def loss_fn():
        return 0.5 * float(np.sum(layer.forward(x) ** 2))

    out = layer.forward(x)
    dx = layer.backward(out.copy())
    analytic = [g.copy() for g in layer.grad_params]
    for arr, an in zip(arrays, analytic):
        fd = _fd_grad(loss_fn, arr)
        worst = max(
            (_rel_err(a, b) for a, b in zip(fd.ravel(), an.ravel())), default=0.0
        )
        assert worst < FD_REL, f"param grad off by {worst}"
    fd_x = _fd_grad(loss_fn, x)
    worst = max((_rel_err(a, b) for a, b in zip(fd_x.ravel(), dx.ravel())), default=0.0)
    assert worst < FD_REL, f"input grad off by {worst}"


def test_dense_gradients_match_fd_100_instances():
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        fan_in = int(rng.integers(1, 7))
        fan_out = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        layer = Dense(fan_in, fan_out, rng)
        x = rng.normal(size=(n, fan_in))
        _check_layer_grads(layer, x, [layer.w, layer.b])


def test_conv1d_gradients_match_fd_100_instances():
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        kernel = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        length = int(rng.integers(kernel, kernel + 6))
        n = int(rng.integers(1, 4))
        layer = Conv1D(c_in, c_out, kernel, rng, stride=stride)
        x = rng.normal(size=(n, c_in, length))
        _check_layer_grads(layer, x, [layer.w, layer.b])


def test_conv_transpose1d_gradients_match_fd_100_instances():
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        kernel = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        length = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        layer = ConvTranspose1D(c_in, c_out, kernel, rng, stride=stride)
        x = rng.normal(size=(n, c_in, length))
        _check_layer_grads(layer, x, [layer.w, layer.b])


def test_relu_composite_gradients_match_fd_100_instances():
    # Dense -> ReLU -> Dense; inputs resampled until every pre-activation
    # clears the kink by more than the FD step can cross.
    checked = 0
    attempt = 0
    while checked < 100:
        rng = np.random.default_rng(4000 + attempt)
        attempt += 1
        fan_in = int(rng.integers(1, 5))
        hidden = int(rng.integers(1, 5))
        fan_out = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d1 = Dense(fan_in, hidden, rng)
        act = ReLU()
        d2 = Dense(hidden, fan_out, rng)
        x = rng.normal(size=(n, fan_in))
        z = d1.forward(x)
        if np.min(np.abs(z)) < 1e-2:
            continue
        checked += 1

        def loss_fn():
            return 0.5 * float(np.sum(d2.forward(act.forward(d1.forward(x))) ** 2))

        out = d2.forward(act.forward(d1.forward(x)))
        d = d2.backward(out.copy())
        d = act.backward(d)
        dx = d1.backward(d)
        for arr, an in [
            (d1.w, d1.grad_params[0]),
            (d1.b, d1.grad_params[1]),
            (d2.w, d2.grad_params[0]),
            (d2.b, d2.grad_params[1]),
        ]:
            fd = _fd_grad(loss_fn, arr)
            worst = max(_rel_err(a, b) for a, b in zip(fd.ravel(), an.ravel()))
            assert worst < FD_REL
        fd_x = _fd_grad(loss_fn, x)
        worst = max(_rel_err(a, b) for a, b in zip(fd_x.ravel(), dx.ravel()))
        assert worst < FD_REL


def _mlp_preactivations_clear(model, x, margin):
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w + b
        if np.min(np.abs(z)) < margin:
            return False
        a = relu(z)
    return True


def _mlp_loss_and_grads(model, x, y):
    # the path train_mlp_stack trains through, without dropout
    grad = np.zeros_like(model.flat)
    layers = _network(model.flat, model.topology, grad)
    loss_val, dz = _cross_entropy(forward(layers, x), y)
    backprop(layers, dz)
    return float(loss_val), [layer.grad_params for layer in layers if layer.params]


def _check_mlp_grads(model, x, y):
    loss_val, grads = _mlp_loss_and_grads(model, x, y)

    def loss_fn():
        return _mlp_loss_and_grads(model, x, y)[0]

    assert loss_fn() == loss_val
    for i, (gw, gb) in enumerate(grads):
        for arr, an in [(model.weights[i], gw), (model.biases[i], gb)]:
            fd = _fd_grad(loss_fn, arr)
            worst = max(_rel_err(a, b) for a, b in zip(fd.ravel(), an.ravel()))
            assert worst < FD_REL, f"layer {i} grad off by {worst}"


def test_mlp_backward_matches_fd_sigmoid_and_softmax_heads():
    configs = [((3, 4, 1), 2), ((3, 4, 3), 3)]
    done = 0
    for topo, n_classes in configs:
        checked = 0
        attempt = 0
        while checked < 30:
            model = init_mlp(topo, seed=5000 + 97 * attempt + done)
            rng = np.random.default_rng(6000 + attempt + done)
            attempt += 1
            n = int(rng.integers(1, 5))
            x = rng.normal(size=(n, topo[0]))
            if not _mlp_preactivations_clear(model, x, 1e-2):
                continue
            y = rng.integers(0, n_classes, size=n)
            _check_mlp_grads(model, x, y)
            checked += 1
        done += checked
    assert done == 60


class _ScalarAdamRef:
    """Textbook Adam on a single float, no numpy."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.b1 = beta1
        self.b2 = beta2
        self.eps = eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, w, g):
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * g
        self.v = self.b2 * self.v + (1.0 - self.b2) * g * g
        m_hat = self.m / (1.0 - self.b1**self.t)
        v_hat = self.v / (1.0 - self.b2**self.t)
        return w - self.lr * m_hat / (math.sqrt(v_hat) + self.eps)


def test_adam_first_step_moves_scalar_by_minus_lr():
    w = np.array([0.0])
    opt = Adam([w], lr=0.001)
    opt.step([w], [np.array([1.0])])
    assert abs(w[0] - (-0.001)) < 1e-9


def test_adam_zero_gradients_leave_params_unchanged():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    snap = (w.copy(), b.copy())
    opt = Adam([w, b], lr=0.01)
    for _ in range(5):
        opt.step([w, b], [np.zeros_like(w), np.zeros_like(b)])
    assert np.array_equal(w, snap[0])
    assert np.array_equal(b, snap[1])


def test_adam_matches_independent_scalar_reference():
    rng = np.random.default_rng(11)
    w = np.array([0.7])
    opt = Adam([w], lr=0.003)
    ref = _ScalarAdamRef(lr=0.003)
    w_ref = 0.7
    for _ in range(10):
        g = float(rng.normal())
        opt.step([w], [np.array([g])])
        w_ref = ref.step(w_ref, g)
        assert abs(w[0] - w_ref) < 1e-10
    assert opt.t == ref.t


def test_adam_two_steps_two_params_match_reference():
    w1 = np.array([0.25])
    w2 = np.array([[-1.5, 2.0]])
    opt = Adam([w1, w2], lr=0.001)
    refs = [_ScalarAdamRef(), _ScalarAdamRef(), _ScalarAdamRef()]
    vals = [0.25, -1.5, 2.0]
    for g in (0.4, -0.9):
        grads = [np.array([g]), np.array([[2.0 * g, -g]])]
        opt.step([w1, w2], grads)
        vals[0] = refs[0].step(vals[0], g)
        vals[1] = refs[1].step(vals[1], 2.0 * g)
        vals[2] = refs[2].step(vals[2], -g)
        assert abs(w1[0] - vals[0]) < 1e-10
        assert abs(w2[0, 0] - vals[1]) < 1e-10
        assert abs(w2[0, 1] - vals[2]) < 1e-10


class _ArrayAdamRef:
    """Adam as one whole-array numpy expression per array, with temporaries."""

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, b1=0.9, b2=0.999, eps=1e-8):
        self.t += 1
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + eps)


def test_blocked_adam_is_bitwise_the_array_formula():
    rng = np.random.default_rng(31)
    # longer than two blocks and not a multiple of one, a single element,
    # and a 2-d array shorter than a block
    shapes = [(2 * _ADAM_BLOCK + 123,), (1,), (7, 5)]
    params = [rng.normal(size=s) for s in shapes]
    ref_params = [p.copy() for p in params]
    opt = Adam(params, lr=0.003)
    ref = _ArrayAdamRef(ref_params, lr=0.003)
    for step in range(6):
        if step == 3:
            opt.lr *= 0.5
            ref.lr *= 0.5
        grads = [rng.normal(size=s) for s in shapes]
        opt.step(params, grads)
        ref.step(ref_params, grads)
        for p, q in zip(params, ref_params):
            assert np.array_equal(p, q)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_moments_are_views_of_one_block_in_the_params_dtype(dtype):
    shapes = [(3, 4), (5,), (2 * _ADAM_BLOCK + 7,)]
    params = [np.ones(s, dtype) for s in shapes]
    opt = Adam(params, lr=0.01)
    block = opt.m[0].base
    total = sum(p.size for p in params)
    assert block.shape == (2, total) and block.dtype == dtype and not block.any()
    assert all(a.base is block and a.dtype == dtype for a in [*opt.m, *opt.v])
    assert [a.size for a in opt.m] == [a.size for a in opt.v] == [p.size for p in params]
    opt.step(params, [np.full(s, 2.0, dtype) for s in shapes])
    # m and v fill the block's rows in parameter order
    assert np.array_equal(block[0], np.concatenate(opt.m))
    assert np.array_equal(block[1], np.concatenate(opt.v))
    with pytest.raises(ValueError, match="one dtype"):
        Adam([np.ones(2, np.float64), np.ones(2, np.float32)])


def test_single_weight_squared_loss_gradient_is_eight():
    # f(x) = w*x with w=1, x=2, target 0, squared-error loss: dL/dw = 8.
    rng = np.random.default_rng(0)
    layer = Dense(1, 1, rng)
    layer.w[...] = 1.0
    layer.b[...] = 0.0
    out = layer.forward(np.array([[2.0]]))
    loss, dpred = mse_loss(out, np.array([[0.0]]))
    assert loss == 4.0
    layer.backward(dpred)
    assert layer.grad_params[0][0, 0] == pytest.approx(8.0, abs=1e-12)


def test_two_input_sigmoid_unit_at_origin_gives_half():
    model = MlpModel(
        topology=(2, 1),
        weights=[np.array([[1.0], [1.0]])],
        biases=[np.array([0.0])],
    )
    assert mlp_forward(model, np.array([[0.0, 0.0]]))[0, 0] == 0.5


def test_hand_wired_two_layer_sigmoid_value():
    model = MlpModel(
        topology=(2, 2, 1),
        weights=[np.eye(2), np.array([[1.0], [-1.0]])],
        biases=[np.zeros(2), np.zeros(1)],
    )
    # x=[1,-1] -> relu([1,-1])=[1,0] -> z=1 -> sigmoid(1)
    got = mlp_forward(model, np.array([[1.0, -1.0]]))[0, 0]
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_conv1d_ones_kernel_is_sliding_sum():
    rng = np.random.default_rng(0)
    layer = Conv1D(1, 1, 2, rng)
    layer.w[...] = 1.0
    layer.b[...] = 0.0
    out = layer.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    assert np.array_equal(out, np.array([[[3.0, 5.0, 7.0]]]))


def test_conv1d_identity_kernel_passes_signal_through():
    rng = np.random.default_rng(1)
    layer = Conv1D(1, 1, 1, rng)
    layer.w[...] = 1.0
    layer.b[...] = 0.0
    x = rng.normal(size=(2, 1, 9))
    assert np.array_equal(layer.forward(x), x)


def test_conv_length_formulas_and_shapes():
    assert Conv1D.out_len(10, 5, 1) == 6
    assert Conv1D.out_len(10, 3, 2) == 4
    assert ConvTranspose1D.out_len(10, 5, 1) == 14
    assert ConvTranspose1D.out_len(4, 3, 2) == 9
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 4))
        length = int(rng.integers(k, k + 9))
        conv = Conv1D(2, 3, k, rng, stride=s)
        out = conv.forward(rng.normal(size=(1, 2, length)))
        assert out.shape == (1, 3, (length - k) // s + 1)
        tconv = ConvTranspose1D(2, 3, k, rng, stride=s)
        tout = tconv.forward(rng.normal(size=(1, 2, length)))
        assert tout.shape == (1, 3, (length - 1) * s + k)


def test_conv1d_rejects_input_shorter_than_kernel():
    with pytest.raises(ValueError):
        Conv1D.out_len(4, 5)


def test_conv_transpose_adjoint_of_conv():
    # <conv(x), y> == <x, conv_T(y)> when the kernels are tied.
    rng = np.random.default_rng(3)
    conv = Conv1D(2, 3, 3, rng, stride=2)
    tconv = ConvTranspose1D(3, 2, 3, rng, stride=2)
    tconv.w[...] = conv.w  # (c_out,c_in,k) of conv == (c_in,c_out,k) of tconv here
    tconv.b[...] = 0.0
    conv.b[...] = 0.0
    x = rng.normal(size=(1, 2, 11))
    y = rng.normal(size=(1, 3, Conv1D.out_len(11, 3, 2)))
    lhs = float(np.sum(conv.forward(x) * y))
    rhs = float(np.sum(x * tconv.forward(y)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------ reference conv kernels
# The per-sample einsum and per-tap kernels the layers used before they ran
# the batch as one channel-major signal; the layers must match them up to
# summation order.


def _ref_conv_forward(x, w, b, stride):
    win = sliding_window_view(x, w.shape[2], axis=2)[:, :, ::stride, :]
    return np.einsum("nclk,ock->nol", win, w, optimize=True) + b[None, :, None]


def _ref_conv_backward(x, w, dout, stride):
    kernel = w.shape[2]
    win = sliding_window_view(x, kernel, axis=2)[:, :, ::stride, :]
    dw = np.einsum("nclk,nol->ock", win, dout, optimize=True)
    db = dout.sum(axis=(0, 2))
    n, _, l_out = dout.shape
    dx = np.zeros(x.shape)
    for k in range(kernel):
        contrib = np.einsum("nol,oc->ncl", dout, w[:, :, k], optimize=True)
        dx[:, :, k : k + l_out * stride : stride] += contrib
    return dx, dw, db


def _ref_deconv_forward(x, w, b, stride):
    n, _, l = x.shape
    kernel = w.shape[2]
    out = np.zeros((n, w.shape[1], ConvTranspose1D.out_len(l, kernel, stride)))
    for k in range(kernel):
        contrib = np.einsum("ncl,co->nol", x, w[:, :, k], optimize=True)
        out[:, :, k : k + l * stride : stride] += contrib
    return out + b[None, :, None]


def _ref_deconv_backward(x, w, dout, stride):
    l = x.shape[2]
    dx = np.zeros(x.shape)
    dw = np.zeros(w.shape)
    for k in range(w.shape[2]):
        sl = dout[:, :, k : k + l * stride : stride]
        dw[:, :, k] = np.einsum("ncl,nol->co", x, sl, optimize=True)
        dx += np.einsum("nol,co->ncl", sl, w[:, :, k], optimize=True)
    return dx, dw, dout.sum(axis=(0, 2))


_REFERENCE = {
    Conv1D: (_ref_conv_forward, _ref_conv_backward),
    ConvTranspose1D: (_ref_deconv_forward, _ref_deconv_backward),
}


# float32 layers against the float64 reference: a few roundings per output
# entry, so a bound of 64 eps leaves headroom over the ~10 eps seen
F32_TOL = 64 * np.finfo(np.float32).eps


def _assert_close(got, want, tol=1e-12):
    """rtol ``tol``, with entries near zero judged against the array's scale."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def _channel_major(a, extra):
    """``a`` (n, c, l) as a view of a (c, n * (l + extra)) buffer with zero tails."""
    n, c, l = a.shape
    buf = np.zeros((c, n * (l + extra)))
    view = buf.reshape(c, n, l + extra)[:, :, :l].transpose(1, 0, 2)
    view[...] = a
    return view


def _check_against_reference(layer, x, dout, tol=1e-12):
    """The layer's forward and backward against the float64 reference on the same inputs."""
    forward, backward = _REFERENCE[type(layer)]
    x_ref, dout_ref = np.array(x, np.float64), np.array(dout, np.float64)
    out = layer.forward(x)
    assert out.dtype == layer.w.dtype
    _assert_close(out, forward(x_ref, layer.w, layer.b, layer.stride), tol)
    dx = layer.backward(dout)
    assert dx.dtype == layer.w.dtype
    ref_dx, ref_dw, ref_db = backward(x_ref, layer.w, dout_ref, layer.stride)
    _assert_close(dx, ref_dx, tol)
    _assert_close(layer.grad_params[0], ref_dw, tol)
    _assert_close(layer.grad_params[1], ref_db, tol)


@pytest.mark.parametrize("kind", [Conv1D, ConvTranspose1D])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_layers_match_reference_kernels(kind, stride):
    for i in range(40):
        rng = np.random.default_rng(5000 + 100 * stride + i)
        c_in, c_out = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        kernel = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        length = int(rng.integers(kernel, kernel + 12))
        layer = kind(c_in, c_out, kernel, rng, stride=stride)
        l_out = kind.out_len(length, kernel, stride)
        x = rng.normal(size=(n, c_in, length))
        dout = rng.normal(size=(n, c_out, l_out))
        _check_against_reference(layer, x, dout)
        extra = int(rng.integers(1, 9))
        _check_against_reference(layer, _channel_major(x, extra),
                                 _channel_major(dout, extra))


@pytest.mark.parametrize("kind", [Conv1D, ConvTranspose1D])
@pytest.mark.parametrize("stride", [1, 2])
def test_float32_conv_layers_match_the_float64_reference(kind, stride):
    for i in range(40):
        rng = np.random.default_rng(6000 + 100 * stride + i)
        c_in, c_out = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        kernel = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        length = int(rng.integers(kernel, kernel + 12))
        layer = kind(c_in, c_out, kernel, None, stride=stride)
        layer.bind(np.empty(layer.size, np.float32), np.zeros(layer.size, np.float32), rng)
        l_out = kind.out_len(length, kernel, stride)
        x = rng.normal(size=(n, c_in, length)).astype(np.float32)
        dout = rng.normal(size=(n, c_out, l_out)).astype(np.float32)
        _check_against_reference(layer, x, dout, F32_TOL)
        extra = int(rng.integers(1, 9))
        _check_against_reference(layer, _channel_major(x, extra),
                                 _channel_major(dout, extra), F32_TOL)


def test_desk_ednn_matches_reference_kernels_layer_by_layer():
    # a desk-width (float32) EDNN on a small batch: each conv layer's
    # forward, dx, dw and db against the float64 reference, fed what the
    # layer before returned
    model = build_ednn(256, (41, 20), "desk", seed=41)
    rng = np.random.default_rng(42)
    a = rng.normal(size=(6, 256)).astype(np.float32)
    inputs, checked = [], 0
    for layer in model.layers:
        inputs.append(np.array(a, np.float64))
        a = layer.forward(a, train=True, rng=rng)
        assert a.dtype == np.float32
        if type(layer) in _REFERENCE:
            # the signal stays channel-major from conv to conv
            assert _buffer_of(a) is not None
            forward, _ = _REFERENCE[type(layer)]
            _assert_close(a, forward(inputs[-1], layer.w, layer.b, layer.stride), F32_TOL)
    d = rng.normal(size=a.shape).astype(np.float32)
    for layer, x in zip(reversed(model.layers), reversed(inputs)):
        d_in = np.array(d, np.float64)
        d = layer.backward(d)
        assert d.dtype == np.float32
        if type(layer) in _REFERENCE:
            assert _buffer_of(d) is not None
            _, backward = _REFERENCE[type(layer)]
            ref_dx, ref_dw, ref_db = backward(x, layer.w, d_in, layer.stride)
            _assert_close(d, ref_dx, F32_TOL)
            _assert_close(layer.grad_params[0], ref_dw, F32_TOL)
            _assert_close(layer.grad_params[1], ref_db, F32_TOL)
            checked += 1
    assert checked == 5


def test_channel_major_views_are_used_in_place_only_with_zero_tails():
    rng = np.random.default_rng(43)
    x = _channel_major(rng.normal(size=(3, 4, 7)), 2)
    buf, pitch = _buffer_of(x)
    assert pitch == 9 and np.shares_memory(buf, x)
    assert _buffer_of(np.array(x)) is None  # C order, 4 channels
    buf.reshape(4, 3, 9)[1, 2, 8] = 1.0  # a nonzero tail is not a buffer
    assert _buffer_of(x) is None
    layer = Conv1D(4, 2, 3, rng)
    _check_against_reference(layer, x, rng.normal(size=(3, 2, 5)))


def test_dropout_masks_are_rng_draws_in_sample_channel_position_order():
    rng = np.random.default_rng(44)
    x = rng.normal(size=(3, 4, 5))
    want = x * ((np.random.default_rng(7).random(x.shape) >= 0.3) / (1.0 - 0.3))
    for given in (np.array(x), _channel_major(x, 3)):
        layer = Dropout(0.3)
        out = layer.forward(given, train=True, rng=np.random.default_rng(7))
        assert np.array_equal(out, want)
        d = layer.backward(np.array(x))
        assert np.array_equal(d, want)


def test_mse_loss_frozen_examples():
    loss, _ = mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    assert loss == 5.0
    loss2, _ = mse_loss(np.array([[1.0], [3.0]]), np.array([[0.0], [0.0]]))
    assert loss2 == 5.0


def test_cross_entropy_floors_probabilities():
    probs = np.array([[1.0, 0.0]])
    val = cross_entropy_from_probs(probs, np.array([1]))
    assert math.isfinite(val)
    assert val == pytest.approx(-math.log(1e-12))


def test_softmax_rows_sum_to_one_and_survive_large_logits():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 7)) * 300.0
    p = softmax(x)
    assert np.all(np.isfinite(p))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9


def test_sigmoid_and_relu_basics():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 3.0]))


def test_dropout_rate_zero_is_identity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    state = rng.bit_generator.state
    out = Dropout(0.0).forward(x.copy(), train=True, rng=rng)
    assert np.array_equal(out, x)
    assert rng.bit_generator.state == state  # no randomness consumed


def test_dropout_preserves_mean_within_one_percent():
    rng = np.random.default_rng(6)
    out = Dropout(0.5).forward(np.ones(100_000), train=True, rng=rng)
    assert abs(float(out.mean()) - 1.0) < 0.01
    kept = out != 0.0
    assert np.all(out[kept] == 2.0)


def test_dropout_same_seed_same_mask():
    x = np.ones((8, 8))
    a = Dropout(0.3).forward(x.copy(), train=True, rng=np.random.default_rng(42))
    b = Dropout(0.3).forward(x.copy(), train=True, rng=np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_reshape_round_trips_each_sample_and_its_gradient():
    x = np.arange(24.0).reshape(2, 12)
    for shape, out_shape in (((1, -1), (2, 1, 12)), ((3, 4), (2, 3, 4)), ((-1,), (2, 12))):
        layer = Reshape(*shape)
        out = layer.forward(x)
        assert out.shape == out_shape and np.shares_memory(out, x)
        assert np.array_equal(out.reshape(2, -1), x)
        assert np.array_equal(layer.backward(out), x)
    flatten = Reshape(-1)
    assert flatten.backward(flatten.forward(x.reshape(2, 3, 4))).shape == (2, 3, 4)


def test_dropout_rejects_rate_one():
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_init_mlp_bounds_and_determinism():
    topo = (5, 16, 8, 1)
    a = init_mlp(topo, seed=123)
    b = init_mlp(topo, seed=123)
    c = init_mlp(topo, seed=124)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    for (fan_in, _), w, bias in zip(zip(topo[:-1], topo[1:]), a.weights, a.biases):
        bound = math.sqrt(1.0 / fan_in)
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(bias)) <= bound
    # the doubles of rng.uniform, layer by layer, weight before bias
    rng = np.random.default_rng(123)
    for (fan_in, fan_out), w, bias in zip(zip(topo[:-1], topo[1:]), a.weights, a.biases):
        bound = np.sqrt(1.0 / fan_in)
        assert np.array_equal(w, rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        assert np.array_equal(bias, rng.uniform(-bound, bound, size=(fan_out,)))


def test_bind_layers_lays_each_layer_over_the_next_slice():
    layers = [Dense(2, 3, None), ReLU(), Dense(3, 1, None)]
    block = np.arange(2 * 13, dtype=np.float64).reshape(2, 13)  # two stacked models
    grad = np.zeros_like(block)
    bind_layers(layers, block, grad)
    first, last = layers[0], layers[2]
    assert first.w.shape == (2, 2, 3) and last.b.shape == (2, 1)
    assert np.shares_memory(first.w, block) and np.shares_memory(last.grad_params[1], grad)
    assert np.array_equal(first.w[1].ravel(), block[1, :6])
    assert np.array_equal(first.b[1], block[1, 6:9])
    assert np.array_equal(last.w[0].ravel(), block[0, 9:12])
    assert np.array_equal(last.b[0], block[0, 12:])
    for size in (12, 14):
        with pytest.raises(ValueError, match="take 13 params"):
            bind_layers(layers, np.zeros(size), None)


def test_in_place_uniform_init_is_bitwise_rng_uniform():
    for fan_in, shape in [(1, (1,)), (3, (3,)), (7, (7, 5)), (512, (4, 128, 4))]:
        out = np.empty(shape)
        _uniform_fan_in(np.random.default_rng(fan_in), fan_in, out)
        bound = np.sqrt(1.0 / fan_in)
        ref = np.random.default_rng(fan_in).uniform(-bound, bound, shape)
        assert np.array_equal(out, ref)


def test_float32_init_draws_in_bounded_pieces():
    # two whole pieces and a partial one, rounded from the doubles of one rng.uniform,
    # with no float64 copy of the whole array made on the way
    n = 2 * _ADAM_BLOCK + 123
    out = np.empty(n, np.float32)
    _uniform_fan_in(np.random.default_rng(5), 9, out)  # warm-up: imports and caches
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _uniform_fan_in(rng, 9, out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = np.sqrt(1.0 / 9)
    assert np.array_equal(out, np.random.default_rng(5).uniform(-bound, bound, n).astype(np.float32))
    assert peak < _ADAM_BLOCK * 8 + 4096 < n * 8


def test_an_mlp_model_binds_its_network_once(monkeypatch):
    built = []

    class Counted(Dense):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(mlp, "Dense", Counted)
    topo = (5, 4, 3)
    model = init_mlp(topo, seed=3)
    # one Dense per layer, the model's own, and the init went into its vector
    assert built == model.layers[::3]
    for layer, w, b in zip(built, model.weights, model.biases):
        assert np.shares_memory(layer.w, model.flat) and np.array_equal(layer.w, w)
        assert np.shares_memory(layer.b, model.flat) and np.array_equal(layer.b, b)
    assert model.flat.any()
    built.clear()
    x = np.random.default_rng(4).normal(size=(6, 5))
    probs = mlp_forward(model, x)
    assert not built  # forward runs the bound network, building none
    dense = [Dense(fan_in, fan_out, None) for fan_in, fan_out in zip(topo, topo[1:])]
    bind_layers(dense, model.flat.copy(), None)
    ref = forward([dense[0], ReLU(), dense[1]], x)
    assert np.array_equal(probs, softmax(ref))


def test_validate_topology_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_topology([4])
    with pytest.raises(ValueError):
        validate_topology([4, 0, 2])
    assert validate_topology([2.0, 3.0]) == (2, 3)


def test_separable_toy_reaches_full_train_accuracy():
    rng = np.random.default_rng(77)
    n = 20
    x0 = rng.normal(size=(n, 2)) * 0.3 + np.array([-2.0, -2.0])
    x1 = rng.normal(size=(n, 2)) * 0.3 + np.array([2.0, 2.0])
    x = np.vstack([x0, x1])
    y = np.array([0] * n + [1] * n)
    model = init_mlp([2, 4, 1], seed=3)
    hist = train_mlp(model, x, y, TrainConfig(epochs=200, batch_size=8, lr=0.01, seed=3))
    assert hist.train_acc[-1] == 1.0
    assert np.mean(predict_labels(model, x) == y) == 1.0


def test_train_mlp_rejects_empty_training_set():
    model = init_mlp([2, 2, 1], seed=0)
    with pytest.raises(ValueError):
        train_mlp(model, np.empty((0, 2)), np.empty(0, dtype=int), TrainConfig(epochs=1))


def test_train_mlp_stops_on_a_non_finite_loss():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 3))
    y = (x[:, 0] > 0).astype(int)
    x[4] = np.inf
    model = init_mlp([3, 4, 1], seed=5)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore", over="ignore"):
        train_mlp(model, x, y, TrainConfig(epochs=3, batch_size=12, seed=5))
    assert err.value.epoch == 1


def test_train_names_the_epoch_whose_finite_loss_stepped_an_infinite_gradient():
    # the sigmoid saturates on the inf row, and the 1e-12 probability floor
    # keeps epoch 1's loss finite while its gradient is not
    x = np.random.default_rng(0).normal(size=(12, 3))
    y = (x[:, 0] > 0).astype(int)
    x[4, 0] = np.inf
    model = init_mlp([3, 4, 1], seed=0)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore", over="ignore"):
        train_mlp(model, x, y, TrainConfig(epochs=3, batch_size=12, seed=0))
    assert err.value.epoch == 1


def test_train_mlp_is_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 3))
    y = (x.sum(axis=1) > 0).astype(int)
    cfg = TrainConfig(epochs=5, batch_size=8, lr=0.01, dropout=0.2, seed=9)
    m1 = init_mlp([3, 6, 1], seed=1)
    m2 = init_mlp([3, 6, 1], seed=1)
    h1 = train_mlp(m1, x, y, cfg)
    h2 = train_mlp(m2, x, y, cfg)
    assert h1.train_loss == h2.train_loss
    for a, b in zip(m1.weights, m2.weights):
        assert np.array_equal(a, b)


def test_train_mlp_early_stop_and_restore_best():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(40, 2))
    y = (x[:, 0] > 0).astype(int)
    val = (rng.normal(size=(20, 2)), None)
    val = (val[0], (val[0][:, 0] > 0).astype(int))
    model = init_mlp([2, 4, 1], seed=2)
    cfg = TrainConfig(
        epochs=100,
        batch_size=8,
        lr=0.02,
        seed=2,
        early_stop_patience=3,
        restore_best=True,
    )
    hist = train_mlp(model, x, y, cfg, val=val)
    assert hist.stopped_epoch <= 100
    assert 1 <= hist.best_epoch <= hist.stopped_epoch
    assert len(hist.val_acc) == hist.stopped_epoch
    # restored weights must reproduce the best recorded validation accuracy
    assert np.mean(predict_labels(model, val[0]) == val[1]) == pytest.approx(
        max(hist.val_acc), abs=1e-12
    )


@pytest.mark.parametrize("stack", [2, 5])
@pytest.mark.parametrize("topo", [(4, 6, 5, 1), (4, 6, 3)])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_stack_trains_bit_identical_to_one_model_at_a_time(stack, topo, dropout):
    rng = np.random.default_rng(11)
    n = 37  # batches of 16, 16 and a partial 5
    x = rng.normal(size=(n, topo[0]))
    y = rng.integers(0, 2 if topo[-1] == 1 else topo[-1], size=n)
    cfgs = [
        TrainConfig(epochs=3, batch_size=16, lr=0.01, dropout=dropout, seed=40 + s)
        for s in range(stack)
    ]
    alone = [init_mlp(topo, seed=20 + s) for s in range(stack)]
    stacked = [MlpModel(m.topology, m.weights, m.biases) for m in alone]
    hists_alone = [train_mlp(m, x, y, c) for m, c in zip(alone, cfgs)]
    hists_stack = train_mlp_stack(stacked, x, y, cfgs)
    assert len(hists_stack) == stack
    for a, b, ha, hb in zip(alone, stacked, hists_alone, hists_stack):
        _assert_packed(b)
        assert np.array_equal(a.flat, b.flat)
        assert ha.train_loss == hb.train_loss
        assert ha.train_acc == hb.train_acc
        assert hb.stopped_epoch == 3
    assert not np.array_equal(alone[0].flat, init_mlp(topo, seed=20).flat)


# ------------------------------------------------ reference MLP trainer
# mlp.py's trainer from before it ran on nn's layers, with its own batched
# forward, backward and dropout masks; train_mlp_stack must match it bit
# for bit.


def _ref_layer_views(flat, topology):
    lead = flat.shape[:-1]
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(topology[:-1], topology[1:]):
        weights.append(flat[..., at : at + fan_in * fan_out].reshape(lead + (fan_in, fan_out)))
        at += fan_in * fan_out
        biases.append(flat[..., at : at + fan_out])
        at += fan_out
    return weights, biases


def _ref_forward(weights, biases, x, masks=None):
    a = x
    acts = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(a, w)
        z += b[..., None, :]
        if i < last:
            a = relu(z)
            if masks is not None:
                a *= masks[i]
        else:
            a = sigmoid(z) if w.shape[-1] == 1 else softmax(z)
        acts.append(a)
    return a, acts


def _ref_loss_and_grads(weights, biases, x, labels, masks, grad_w, grad_b):
    out, acts = _ref_forward(weights, biases, x, masks)
    n = out.shape[-2]
    loss_val = cross_entropy_from_probs(out, labels)
    if out.shape[-1] == 1:
        dz = (out - labels[..., None]) / n
    else:
        dz = (out - (labels[..., None] == np.arange(out.shape[-1]))) / n
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), dz, out=grad_w[i])
        np.sum(dz, axis=-2, out=grad_b[i])
        if i > 0:
            da = np.matmul(dz, weights[i].swapaxes(-1, -2))
            if masks is not None:
                da *= masks[i - 1]
            dz = np.multiply(da, acts[i] > 0.0, out=da)
    return loss_val


def _ref_dropout_masks(rngs, rate, hidden, n, noise):
    drawn = noise[..., : n * sum(hidden)]
    for row, rng in zip(drawn.reshape(len(rngs), -1), rngs):
        rng.random(out=row)
    keep = (drawn >= rate) / (1.0 - rate)
    masks, at = [], 0
    for width in hidden:
        masks.append(keep[..., at : at + n * width].reshape(keep.shape[:-1] + (n, width)))
        at += n * width
    return masks


def _ref_labels(probs):
    return (probs[..., 0] >= 0.5) if probs.shape[-1] == 1 else np.argmax(probs, axis=-1)


def _ref_train_stack(models, x, y, cfgs, val=None):
    """(flat, train_loss, train_acc) per model, the models left untouched.

    With ``val`` (one model) the validation schedule runs too, and
    (val_acc, best_epoch, stopped_epoch) follow.
    """
    cfg = cfgs[0]
    topology = models[0].topology
    flat = models[0].flat.copy() if len(models) == 1 else np.stack([m.flat for m in models])
    lead = flat.shape[:-1]
    weights, biases = _ref_layer_views(flat, topology)
    grad = np.zeros_like(flat)
    grad_w, grad_b = _ref_layer_views(grad, topology)
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    hidden = topology[1:-1]
    noise = np.empty(lead + (cfg.batch_size * sum(hidden),))
    opt = Adam([flat], lr=cfg.lr)
    n = x.shape[0]
    losses, accs = [], []
    val_accs, best_acc, best_epoch, best_flat, stale = [], -1.0, 0, None, 0
    for epoch in range(1, cfg.epochs + 1):
        order = np.reshape([rng.permutation(n) for rng in rngs], lead + (n,))
        epoch_loss = np.zeros(lead)
        for start in range(0, n, cfg.batch_size):
            idx = order[..., start : start + cfg.batch_size]
            masks = None
            if cfg.dropout > 0.0:
                masks = _ref_dropout_masks(rngs, cfg.dropout, hidden, idx.shape[-1], noise)
            loss_val = _ref_loss_and_grads(weights, biases, x[idx], y[idx], masks, grad_w, grad_b)
            opt.step([flat], [grad])
            epoch_loss += loss_val * idx.shape[-1]
        labels = _ref_labels(_ref_forward(weights, biases, x)[0])
        losses.append(np.atleast_1d(epoch_loss / n))
        accs.append(np.atleast_1d(np.mean(labels == y, axis=-1)))
        if val is None:
            continue
        acc = float(np.mean(_ref_labels(_ref_forward(weights, biases, val[0])[0]) == val[1]))
        val_accs.append(acc)
        if acc > best_acc:
            best_acc, best_epoch, stale = acc, epoch, 0
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
    out = np.reshape(flat, (len(models), -1)), np.transpose(losses), np.transpose(accs)
    return out if val is None else (*out, val_accs, best_epoch, epoch)


@pytest.mark.parametrize("stack", [1, 3])
@pytest.mark.parametrize("topo", [(4, 6, 5, 1), (4, 6, 3)])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_stack_training_matches_reference_trainer_bit_for_bit(stack, topo, dropout):
    rng = np.random.default_rng(12)
    n = 37  # batches of 12, 12, 12 and a last one of a single row
    x = rng.normal(size=(n, topo[0]))
    y = rng.integers(0, 2 if topo[-1] == 1 else topo[-1], size=n)
    cfgs = [
        TrainConfig(epochs=3, batch_size=12, lr=0.01, dropout=dropout, seed=60 + s)
        for s in range(stack)
    ]
    models = [init_mlp(topo, seed=70 + s) for s in range(stack)]
    ref_flat, ref_loss, ref_acc = _ref_train_stack(models, x, y, cfgs)
    hists = train_mlp_stack(models, x, y, cfgs)
    for model, hist, flat, loss, acc in zip(models, hists, ref_flat, ref_loss, ref_acc):
        assert np.array_equal(model.flat, flat)
        assert np.array_equal(hist.train_loss, loss)
        assert np.array_equal(hist.train_acc, acc)
    # relu and a dropout scale >= 0 commute, so the numbers above cannot
    # tell the hidden layers' order apart; pin it here
    kinds = [type(layer).__name__ for layer in _network(models[0].flat, topo)]
    assert kinds == ["Dense"] + ["ReLU", "Dropout", "Dense"] * (len(topo) - 2)


def test_validation_schedule_matches_reference_trainer_bit_for_bit():
    # lr halving, the early stop and restore-best all fire on this case
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 3))
    y = (x[:, 0] + 0.8 * rng.normal(size=30) > 0).astype(int)
    xv = rng.normal(size=(10, 3))
    yv = (xv[:, 0] + 0.8 * rng.normal(size=10) > 0).astype(int)
    cfg = TrainConfig(epochs=60, batch_size=8, lr=0.05, dropout=0.2, seed=3,
                      early_stop_patience=5, lr_halve_after=2, restore_best=True)
    model = init_mlp((3, 6, 1), seed=3)
    ref_flat, ref_loss, ref_acc, val_acc, best, stopped = _ref_train_stack(
        [model], x, y, [cfg], val=(xv, yv))
    hist = train_mlp(model, x, y, cfg, val=(xv, yv))
    assert np.array_equal(model.flat, ref_flat[0])
    assert np.array_equal(hist.train_loss, ref_loss[0])
    assert np.array_equal(hist.train_acc, ref_acc[0])
    assert hist.val_acc == val_acc
    assert (hist.best_epoch, hist.stopped_epoch) == (best, stopped)
    # restore-best rewound the run, which stopped early after halving lr
    assert cfg.lr_halve_after < stopped - best == cfg.early_stop_patience
    assert 1 < best and stopped < cfg.epochs
    assert np.mean(predict_labels(model, xv) == yv) == max(val_acc)


def test_train_mlp_stack_rejects_mixed_configs_topologies_and_val():
    x = np.zeros((4, 2))
    y = np.array([0, 1, 0, 1])
    models = [init_mlp((2, 3, 1), seed=s) for s in range(2)]
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        train_mlp_stack(models, x, y, [cfg, replace(cfg, lr=0.1)])
    with pytest.raises(ValueError):
        train_mlp_stack(models, x, y, [cfg])
    with pytest.raises(ValueError):
        train_mlp_stack([models[0], init_mlp((2, 4, 1), seed=0)], x, y, [cfg, cfg])
    with pytest.raises(ValueError):
        train_mlp_stack(models, x, y, [cfg, replace(cfg, seed=1)], val=(x, y))


def _assert_packed(model):
    arrays = [a for wb in zip(model.weights, model.biases) for a in wb]
    assert all(np.shares_memory(a, model.flat) for a in arrays)
    assert np.array_equal(model.flat, np.concatenate([a.ravel() for a in arrays]))


def test_every_mlp_constructor_packs_weights_into_flat():
    topo = (5, 4, 3)
    model = init_mlp(topo, seed=3)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    built = MlpModel(topo, weights, biases)
    weights[0][0, 0] += 1.0  # construction copied, so the model does not see this
    assert built.weights[0][0, 0] == model.weights[0][0, 0]
    matrix = coefficients_to_matrix(model)
    for m in (
        model,
        built,
        model_from_dict(model_to_dict(model)),
        matrix_to_coefficients(matrix, topo),
    ):
        _assert_packed(m)
        assert np.array_equal(m.flat, model.flat)
    assert not np.shares_memory(matrix_to_coefficients(matrix, topo).flat, matrix.data)
