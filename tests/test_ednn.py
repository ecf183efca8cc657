"""Encoder-decoder network: architecture algebra, metric, training gates."""

import numpy as np
import pytest

from traceweights.ednn import (
    EdnnHistory,
    EdnnTrainConfig,
    build_ednn,
    ednn_accuracy,
    ednn_from_vector,
    predict_weights,
    train_ednn,
)
from traceweights.nn import (
    Adam,
    Conv1D,
    ConvTranspose1D,
    Dense,
    DivergenceError,
    Dropout,
    _buffer_of,
    backprop,
    mse_loss,
)
from traceweights.pipeline import Translator, make_fixed_input
from traceweights.reduction import Standardizer, pca_fit, pca_transform


def _signal_lengths(model, x):
    lengths = []
    a = np.atleast_2d(x)
    for layer in model.layers:
        a = layer.forward(a, train=False)
        if isinstance(layer, (Conv1D, ConvTranspose1D)) or layer is model.layers[2]:
            lengths.append(a.shape[-1])
    return lengths, a


def test_paper_scale_conv_length_chain():
    model = build_ednn(1024, (3, 2), "paper", seed=0)
    x = np.zeros((1, 1024))
    lengths, out = _signal_lengths(model, x)
    # reshape 256, conv 253/250/247, deconv 251/254
    assert lengths == [256, 253, 250, 247, 251, 254]
    assert out.shape == (1, 3, 2)
    channels = [l.w.shape[0] for l in model.layers if isinstance(l, Conv1D)]
    assert channels == [256, 128, 64]
    dchannels = [l.w.shape[1] for l in model.layers if isinstance(l, ConvTranspose1D)]
    assert dchannels == [256, 128]


def test_desk_scale_halves_widths_and_sizes_final_dense():
    model = build_ednn(256, (7, 4), "desk", seed=1)
    dense_layers = [l for l in model.layers if isinstance(l, Dense)]
    assert dense_layers[0].w.shape == (256, 128)
    assert dense_layers[-1].w.shape[1] == 28  # rows*cols for (7,4)
    channels = [l.w.shape[0] for l in model.layers if isinstance(l, Conv1D)]
    assert channels == [128, 64, 32]
    drops = [l for l in model.layers if isinstance(l, Dropout)]
    assert len(drops) == 2 and all(d.rate == 0.5 for d in drops)
    out = model.forward(np.zeros(256))
    assert out.shape == (1, 7, 4)


def test_build_validation():
    with pytest.raises(ValueError):
        build_ednn(15, (2, 2), "desk", seed=0)
    with pytest.raises(ValueError):
        build_ednn(64, (2, 2), "bench", seed=0)
    with pytest.raises(ValueError):
        build_ednn(64, (0, 2), "desk", seed=0)


def test_build_is_seed_deterministic():
    a = build_ednn(32, (2, 3), "desk", seed=7)
    b = build_ednn(32, (2, 3), "desk", seed=7)
    c = build_ednn(32, (2, 3), "desk", seed=8)
    assert np.array_equal(a.param_vector(), b.param_vector())
    assert not np.array_equal(a.param_vector(), c.param_vector())


def test_build_draws_each_layer_in_order_as_rng_uniform():
    model = build_ednn(32, (2, 3), "desk", seed=7)
    rng = np.random.default_rng(7)
    ref = []
    for layer in model.layers:
        if isinstance(layer, Dense):
            fan_in = layer.w.shape[0]
        elif isinstance(layer, Conv1D):
            fan_in = layer.w.shape[1] * layer.w.shape[2]
        elif isinstance(layer, ConvTranspose1D):
            fan_in = layer.w.shape[0] * layer.w.shape[2]
        else:
            continue
        bound = np.sqrt(1.0 / fan_in)
        ref += [rng.uniform(-bound, bound, layer.w.shape).ravel(),
                rng.uniform(-bound, bound, layer.b.shape)]
    assert len(ref) == 14
    # the float32 parameters are the float64 uniforms rounded to nearest
    assert model.flat.dtype == model.flat_grad.dtype == np.float32
    assert np.concatenate(ref).astype(np.float32).tobytes() == model.flat.tobytes()
    assert model.flat_grad.shape == model.flat.shape and not model.flat_grad.any()


def test_ednn_accuracy_frozen_examples():
    truth = np.zeros((2, 2))
    assert ednn_accuracy(truth, truth, tau=0.05) == 1.0
    assert ednn_accuracy(truth + 0.1, truth, tau=0.05) == 0.0  # off by 2*tau
    pred = np.array([[0.04, 0.06], [0.0, 0.0]])
    assert ednn_accuracy(pred, truth, tau=0.05) == 0.75
    # boundary counts as a hit (<=)
    assert ednn_accuracy(truth + 0.05, truth, tau=0.05) == 1.0


def test_ednn_accuracy_mask_and_batch():
    truth = np.zeros((2, 2))
    pred = np.array([[0.04, 0.06], [0.0, 0.0]])
    mask = np.array([[True, True], [True, False]])
    assert ednn_accuracy(pred, truth, tau=0.05, mask=mask) == pytest.approx(2 / 3)
    batch_p = np.stack([pred, truth])
    batch_t = np.stack([truth, truth])
    assert ednn_accuracy(batch_p, batch_t, tau=0.05) == pytest.approx(7 / 8)
    with pytest.raises(ValueError):
        ednn_accuracy(np.zeros((2, 2)), np.zeros((2, 3)))


def test_memorizes_identical_pairs_within_50_epochs():
    rng = np.random.default_rng(3)
    x = np.tile(rng.normal(size=16), (8, 1))
    y = np.full((8, 2, 2), 0.2)
    model = build_ednn(16, (2, 2), "desk", seed=4)
    cfg = EdnnTrainConfig(epochs=50, batch_size=1, lr=0.003, tau=0.05, seed=5)
    hist = train_ednn(model, x, y, cfg, theta=1.0, val=(x, y))
    assert hist.reached_theta
    assert hist.val_accuracy[-1] == 1.0
    assert hist.epochs_run <= 50
    # Eq.-2 loss of the trained model goes to ~0 (the in-loop bookkeeping
    # value keeps dropout noise and stays above it)
    diff = predict_weights(model, x) - y
    assert float(np.sum(diff * diff) / x.shape[0]) < 1e-3


def test_theta_zero_returns_after_first_epoch():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 16))
    y = rng.normal(size=(10, 2, 2))
    model = build_ednn(16, (2, 2), "desk", seed=7)
    hist = train_ednn(
        model, x, y, EdnnTrainConfig(epochs=30, batch_size=10, seed=8),
        theta=0.0, val=(x, y),
    )
    assert hist.epochs_run == 1
    assert hist.reached_theta


def test_gate_never_reports_success_below_theta():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12, 16))
    y = rng.normal(size=(12, 2, 2)) * 5.0  # far outside tau reach
    model = build_ednn(16, (2, 2), "desk", seed=10)
    hist = train_ednn(
        model, x, y, EdnnTrainConfig(epochs=3, batch_size=12, seed=11),
        theta=0.99, val=(x, y),
    )
    assert not hist.reached_theta
    assert all(acc < 0.99 for acc in hist.val_accuracy)
    # and whenever the flag is set, the last recorded accuracy clears theta
    model2 = build_ednn(16, (2, 2), "desk", seed=12)
    y2 = np.zeros((12, 2, 2))
    hist2 = train_ednn(
        model2, x, y2, EdnnTrainConfig(epochs=50, batch_size=4, lr=0.003, seed=13),
        theta=0.9, val=(x, y2),
    )
    if hist2.reached_theta:
        assert hist2.val_accuracy[-1] >= 0.9


def test_divergence_aborts_with_epoch_index():
    # inputs large enough that the float32 cast overflows and the loss is not finite
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 16)) * 1e180
    y = rng.normal(size=(6, 2, 2))
    model = build_ednn(16, (2, 2), "desk", seed=15)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
        train_ednn(
            model, x, y, EdnnTrainConfig(epochs=5, batch_size=6, seed=16),
            theta=2.0,
        )
    assert err.value.epoch == 1
    assert "epoch" in str(err.value)


def test_full_batch_eq2_loss_non_increasing_at_small_lr():
    # the Eq.-2 quantity is the deterministic training-set MSE of the
    # model at each epoch boundary, where the log line is written; the
    # dropped-forward bookkeeping value inside the loop is noisy and exempt.
    rng = np.random.default_rng(17)
    x = rng.normal(size=(50, 16))
    y = rng.normal(size=(50, 2, 2)) * 0.3
    model = build_ednn(16, (2, 2), "desk", seed=18)

    def eq2_loss():
        diff = predict_weights(model, x) - y
        return float(np.sum(diff * diff) / x.shape[0])

    losses = [eq2_loss()]
    train_ednn(
        model, x, y, EdnnTrainConfig(epochs=40, batch_size=50, lr=1e-4, seed=19),
        theta=2.0, log=lambda line: losses.append(eq2_loss()),
    )
    assert len(losses) == 41
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


# ------------------------------------------------ reference EDNN trainer
# train_ednn's own loop from before it ran on nn.train, copied with the
# model's one-line backward inlined; train_ednn must match it bit for bit,
# log lines included.


def _reference_train_ednn(model, x_train, y_train, cfg, theta, val=None, mask=None, log=None):
    x_train = np.asarray(x_train, dtype=np.float32)
    y_train = np.asarray(y_train, dtype=np.float32)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam([model.flat], lr=cfg.lr)
    hist = EdnnHistory()

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(x_train.shape[0])
        epoch_loss = 0.0
        for start in range(0, x_train.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            pred = model.forward(x_train[idx], train=True, rng=rng)
            loss, dpred = mse_loss(pred, y_train[idx])
            assert np.isfinite(loss)
            backprop(model.layers, dpred)
            opt.step([model.flat], [model.flat_grad])
            epoch_loss += loss * len(idx)
        hist.train_loss.append(epoch_loss / x_train.shape[0])
        hist.epochs_run = epoch

        if val is not None:
            acc = ednn_accuracy(
                model.forward(val[0], train=False), val[1], cfg.tau, mask
            )
            hist.val_accuracy.append(acc)
            if log is not None:
                log(f"epoch={epoch} loss={hist.train_loss[-1]:.5f} val_acc={acc:.4f}")
            if acc >= theta:
                hist.reached_theta = True
                break
        elif log is not None:
            log(f"epoch={epoch} loss={hist.train_loss[-1]:.5f}")
    return hist


@pytest.mark.parametrize("with_val", [True, False])
def test_train_ednn_matches_reference_loop_bit_for_bit(with_val):
    rng = np.random.default_rng(41)
    n = 23  # batches of 8, 8 and a partial 7
    x = rng.normal(size=(n, 16))
    y = rng.uniform(-0.1, 0.1, size=(n, 2, 3))
    val = (rng.normal(size=(9, 16)), rng.uniform(-0.1, 0.1, size=(9, 2, 3)))
    mask = np.array([[True, True, False], [True, True, True]])
    cfg = EdnnTrainConfig(epochs=8, batch_size=8, lr=0.003, tau=0.05, seed=41)
    # with val, a theta that a middle epoch reaches ends the run early
    kwargs = dict(theta=0.56, val=val, mask=mask) if with_val else dict(theta=0.0)
    runs = []
    for trainer in (_reference_train_ednn, train_ednn):
        model = build_ednn(16, (2, 3), "desk", seed=42)
        lines = []
        hist = trainer(model, x, y, cfg, log=lines.append, **kwargs)
        runs.append((model.flat, hist, lines))
    (ref_flat, ref, ref_lines), (flat, hist, lines) = runs
    assert np.array_equal(flat, ref_flat)
    assert hist.train_loss == ref.train_loss
    assert hist.val_accuracy == ref.val_accuracy
    assert (hist.epochs_run, hist.reached_theta) == (ref.epochs_run, ref.reached_theta)
    assert lines == ref_lines
    if with_val:
        assert ref.reached_theta and 1 < ref.epochs_run < cfg.epochs
    else:
        assert not ref.reached_theta and ref.epochs_run == cfg.epochs
        assert ref.val_accuracy == []


def test_train_rejects_empty_or_misaligned_pairs():
    model = build_ednn(16, (2, 2), "desk", seed=20)
    cfg = EdnnTrainConfig(epochs=1, batch_size=4)
    with pytest.raises(ValueError):
        train_ednn(model, np.empty((0, 16)), np.empty((0, 2, 2)), cfg, theta=0.5)
    with pytest.raises(ValueError):
        train_ednn(model, np.zeros((3, 16)), np.zeros((2, 2, 2)), cfg, theta=0.5)


def test_predict_weights_shapes_and_determinism():
    model = build_ednn(20, (3, 3), "desk", seed=21)
    rng = np.random.default_rng(22)
    one = rng.normal(size=20)
    batch = rng.normal(size=(4, 20))
    a = predict_weights(model, one)
    b = predict_weights(model, one)
    assert a.shape == (3, 3) and a.dtype == np.float32
    assert np.array_equal(a, b)
    out = predict_weights(model, batch)
    assert out.shape == (4, 3, 3)
    # batched and single GEMM paths agree to float32 rounding, not bitwise
    tol = 64 * np.finfo(np.float32).eps * np.abs(out).max()
    assert np.allclose(out[0], predict_weights(model, batch[0]), rtol=0, atol=tol)
    assert np.all(np.isfinite(out))


def test_checkpoint_round_trip():
    model = build_ednn(18, (2, 3), "desk", seed=23)
    back = ednn_from_vector(18, (2, 3), "desk", model.param_vector())
    assert np.array_equal(back.param_vector(), model.param_vector())
    assert not np.shares_memory(model.param_vector(), model.flat)
    x = np.random.default_rng(24).normal(size=18)
    assert np.array_equal(predict_weights(back, x), predict_weights(model, x))
    for size in (5, model.flat.size + 1):
        with pytest.raises(ValueError, match="params"):
            ednn_from_vector(18, (2, 3), "desk", np.zeros(size))


def test_training_twice_from_one_seed_is_byte_identical():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(30, 24))
    y = rng.uniform(-0.5, 0.5, size=(30, 3, 4))
    flats = []
    for _ in range(2):
        model = build_ednn(24, (3, 4), "desk", seed=34)
        train_ednn(model, x, y, EdnnTrainConfig(epochs=2, batch_size=8, seed=35), theta=2.0)
        flats.append(model.flat.tobytes())
    assert flats[0] == flats[1]


def _parametric(model):
    return [layer for layer in model.layers if layer.params]


def _assert_packed(model):
    layers = _parametric(model)
    assert layers
    for layer in layers:
        assert layer.params[0] is layer.w and layer.params[1] is layer.b
        assert all(np.shares_memory(p, model.flat) for p in layer.params)
        assert all(np.shares_memory(g, model.flat_grad) for g in layer.grad_params)
    params = [p.ravel() for layer in layers for p in layer.params]
    assert np.array_equal(model.flat, np.concatenate(params))


def _write_through_translator(run_dir, model):
    """Write ``model`` as ednn.f32/ednn.json beside a PCA of matching k."""
    traces = np.random.default_rng(33).normal(size=(model.input_len + 4, model.input_len + 5))
    pca = pca_fit(traces, model.input_len)
    scaler = Standardizer.fit(pca_transform(pca, traces))
    fixed = make_fixed_input(3, master_seed=7)
    Translator(ednn=model, fixed=fixed, pca=pca, scaler=scaler).write(run_dir, "c", {})


def test_built_and_read_models_keep_layer_params_as_views(tmp_path):
    model = build_ednn(18, (2, 3), "desk", seed=29)
    _assert_packed(model)
    _write_through_translator(tmp_path / "m", model)
    back, _ = Translator.read(tmp_path / "m", "c")
    _assert_packed(back.ednn)
    assert not np.shares_memory(model.param_vector(), model.flat)


def test_ednn_from_vector_lays_its_layers_over_the_vector():
    size = build_ednn(16, (2, 2), "desk", seed=30).flat.size
    vec = np.random.default_rng(31).normal(size=size).astype(np.float32)
    model = ednn_from_vector(16, (2, 2), "desk", vec)
    assert model.flat is vec
    assert np.array_equal(vec, np.random.default_rng(31).normal(size=size).astype(np.float32))
    _assert_packed(model)
    # any other dtype is refused, not copied
    with pytest.raises(ValueError, match="float64"):
        ednn_from_vector(16, (2, 2), "desk", vec.astype(np.float64))


def test_built_model_keeps_params_and_gradient_in_one_block():
    model = build_ednn(16, (2, 2), "desk", seed=30)
    size = model.flat.size
    block = model.flat.base
    assert block.shape == (2, size) and block.dtype == np.float32
    assert model.flat_grad.base is block
    assert np.array_equal(model.flat, block[0]) and np.shares_memory(model.flat, block[0])
    assert np.shares_memory(model.flat_grad, block[1]) and not model.flat_grad.any()
    _assert_packed(model)
    # a half of the block is a model's vector; the block, or another dtype, is refused
    assert ednn_from_vector(16, (2, 2), "desk", model.flat).flat is model.flat
    with pytest.raises(ValueError, match="params"):
        ednn_from_vector(16, (2, 2), "desk", block.reshape(-1))
    with pytest.raises(ValueError, match="float64"):
        ednn_from_vector(16, (2, 2), "desk", model.flat.astype(np.float64))


def test_write_ednn_bytes_are_layer_params_in_order(tmp_path):
    model = build_ednn(16, (2, 2), "desk", seed=32)
    _write_through_translator(tmp_path / "m", model)
    per_layer = [p.ravel() for layer in _parametric(model) for p in layer.params]
    expect = np.concatenate(per_layer).astype("<f4").tobytes()
    assert (tmp_path / "m" / "ednn.f32").read_bytes() == expect


def test_one_training_step_stays_float32_and_in_place():
    # every activation, gradient and Adam moment of a desk EDNN is float32,
    # and each conv layer's output is the buffer the next one reads in place
    model = build_ednn(32, (3, 4), "desk", seed=36)
    convs = [layer for layer in model.layers if isinstance(layer, (Conv1D, ConvTranspose1D))]
    outputs = []
    for layer in model.layers:
        def recorded(x, train=False, rng=None, forward=layer.forward):
            out = forward(x, train=train, rng=rng)
            outputs.append(out)
            return out
        layer.forward = recorded
    start = model.flat.copy()
    rng = np.random.default_rng(37)
    x = rng.normal(size=(5, 32))
    y = rng.uniform(-0.5, 0.5, size=(5, 3, 4))
    hist = train_ednn(model, x, y, EdnnTrainConfig(epochs=1, batch_size=5, seed=38), theta=2.0)
    assert hist.epochs_run == 1
    assert not np.array_equal(model.flat, start)
    assert len(outputs) == len(model.layers)
    assert all(a.dtype == np.float32 for a in outputs)
    for layer, out in zip(model.layers, outputs):
        if layer in convs:
            buf, _ = _buffer_of(out)
            assert np.shares_memory(buf, out)
            # the next conv layer read that buffer itself, not a copy of it
            following = convs[convs.index(layer) + 1:]
            if following:
                assert np.shares_memory(following[0]._x, buf)
    grads = [g for layer in _parametric(model) for g in layer.grad_params]
    assert model.flat_grad.any()
    assert all(a.dtype == np.float32 for a in [model.flat, model.flat_grad, *grads])
    opt = Adam([model.flat], lr=0.001)  # as training builds it
    assert all(a.dtype == np.float32 for a in [*opt.m, *opt.v, opt._a, opt._b])
