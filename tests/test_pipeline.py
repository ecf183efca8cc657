"""Three-phase pipeline: pair preparation, the chunk-growing loop, the
translator, extraction, fine-tuning, and artifact persistence.

Every run here uses a deliberately tiny configuration (3 features,
[3,4,1] topology, tens of pairs) so the full loop stays fast while
exercising the same code paths as the full-size suite.
"""

import numpy as np
import pytest

from traceweights.codec import coefficients_to_matrix, matrix_shape
from traceweights.datasets import TaskSpec, gen_synthetic, sample_dsmall
from traceweights.device import DeviceConfig, simulate_trace
from traceweights.ednn import EdnnTrainConfig, build_ednn
from traceweights.mlp import TrainConfig, init_mlp, model_accuracy, train_mlp
from traceweights.pipeline import (
    FinetuneConfig,
    PipelineConfig,
    Translator,
    make_fixed_input,
    persist_phase1,
    prepare_pairs,
    run_phase1,
    run_phase2,
    run_phase3,
    split_counts,
    translate_trace,
)
from traceweights.reduction import Standardizer, pca_fit, pca_transform
from traceweights.seeding import derive_seed

TASK = TaskSpec(name="pico", n_features=3, n_classes=2, separation=2.0, seed=1)
DEVICE = DeviceConfig(
    adc_bits=12,
    adc_lo=0.0,
    adc_hi=42.0,
    noise_sigma=0.15,
    static_power=5.0,
    dynamic_scale=1.0,
    fixed_point_bits=16,
    fixed_point_frac_bits=4,
)


def tiny_config(**over):
    base = dict(
        task=TASK,
        topology=(3, 4, 1),
        device=DEVICE,
        master_seed=7,
        scale="desk",
        chunks=2,
        reps=18,
        pool_size=60,
        pca_k=16,
        theta=0.0,
        surrogate=TrainConfig(epochs=5, batch_size=8, lr=0.01, dropout=0.0),
        ednn=EdnnTrainConfig(epochs=3, batch_size=9, lr=0.001, tau=0.05, seed=0),
        finetune=FinetuneConfig(epochs_max=25, batch_size=8, lr=0.01),
    )
    base.update(over)
    return PipelineConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(topology=(4, 4, 1))  # input width != task features
    with pytest.raises(ValueError):
        tiny_config(topology=(3, 4, 2))  # binary task wants a 1-unit head
    with pytest.raises(ValueError):
        tiny_config(theta=-0.1)
    with pytest.raises(ValueError):
        tiny_config(splits=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        tiny_config(reps=0)
    # theta above 1 is a legal never-reachable sentinel
    assert tiny_config(theta=1.1).theta == 1.1


def test_split_counts_frozen_and_floors():
    assert split_counts(300, (0.75, 0.20, 0.05)) == (225, 60, 15)
    assert split_counts(18, (0.75, 0.20, 0.05)) == (13, 3, 2)
    with pytest.raises(ValueError):
        split_counts(4, (0.75, 0.20, 0.05))  # test split floors to zero


def test_fixed_input_deterministic_unit_range():
    a = make_fixed_input(5, master_seed=7)
    b = make_fixed_input(5, master_seed=7)
    c = make_fixed_input(5, master_seed=8)
    assert np.array_equal(a.values, b.values)
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert np.all((a.values >= 0.0) & (a.values < 1.0))


def _pairs(cfg, n_chunks=2, reps=None, iteration=1):
    from traceweights.datasets import chunk

    pool = gen_synthetic(cfg.task, cfg.pool_size, seed=3)
    chunks = chunk(pool, n_chunks)
    fixed = make_fixed_input(cfg.topology[0], cfg.master_seed)
    return prepare_pairs(chunks[:n_chunks], cfg, fixed, iteration=iteration), fixed


def test_prepare_pairs_count_law_and_chunk_labels():
    cfg = tiny_config(reps=3)
    pairs, _ = _pairs(cfg)
    assert pairs.n == 2 * 3  # |sub| * r
    assert pairs.chunk_of.tolist() == [0, 0, 0, 1, 1, 1]
    rows, cols = matrix_shape(cfg.topology)
    assert pairs.matrices.shape == (6, rows, cols)
    assert pairs.traces.shape[1] == 21  # total_macs([3,4,1])


def test_repetitions_of_one_chunk_give_distinct_matrices():
    cfg = tiny_config(reps=4)
    pairs, _ = _pairs(cfg, n_chunks=1)
    for i in range(pairs.n):
        for j in range(i + 1, pairs.n):
            assert float(np.abs(pairs.matrices[i] - pairs.matrices[j]).max()) > 0.0


def test_prepare_pairs_rejects_mismatched_chunk_naming_it():
    cfg = tiny_config()
    wrong = gen_synthetic(
        TaskSpec(name="wide", n_features=4, n_classes=2, seed=2), 20, seed=4
    )
    fixed = make_fixed_input(3, 7)
    with pytest.raises(ValueError) as err:
        prepare_pairs([wrong], cfg, fixed, iteration=1)
    assert "chunk 0" in str(err.value)


def test_prepare_pairs_is_deterministic():
    cfg = tiny_config(reps=3)
    a, _ = _pairs(cfg)
    b, _ = _pairs(cfg)
    assert a.traces.tobytes() == b.traces.tobytes()
    assert a.matrices.tobytes() == b.matrices.tobytes()


def test_prepare_pairs_matches_training_one_surrogate_at_a_time():
    from traceweights.datasets import chunk

    sur_cfg = TrainConfig(epochs=4, batch_size=8, lr=0.01, dropout=0.3)
    cfg = tiny_config(reps=3, surrogate=sur_cfg)
    pairs, fixed = _pairs(cfg)
    chunks = chunk(gen_synthetic(cfg.task, cfg.pool_size, seed=3), 2)
    device_base = derive_seed(cfg.master_seed, "phase1", 1, "device")
    traces, matrices, accs = [], [], []
    for ci, ds in enumerate(chunks):
        for rep in range(cfg.reps):
            sur = init_mlp(cfg.topology, derive_seed(7, "phase1", 1, "sur-init", ci, rep))
            train_cfg = TrainConfig(
                epochs=4, batch_size=8, lr=0.01, dropout=0.3,
                seed=derive_seed(7, "phase1", 1, "sur-train", ci, rep),
            )
            accs.append(train_mlp(sur, ds.x, ds.y, train_cfg).train_acc[-1])
            trace = simulate_trace(sur, fixed.values, cfg.device, seed=device_base ^ len(traces))
            traces.append(trace.samples)
            matrices.append(coefficients_to_matrix(sur).data)

    def f32(a):
        return np.asarray(a).astype(np.float32).astype(np.float64)

    assert np.array_equal(pairs.traces, f32(traces))
    assert np.array_equal(pairs.matrices, f32(matrices))
    assert np.array_equal(pairs.surrogate_train_acc, np.asarray(accs))


def test_phase1_theta_zero_stops_after_one_iteration():
    cfg = tiny_config(theta=0.0)
    res = run_phase1(cfg)
    assert res.reached_theta
    assert len(res.iterations) == 1
    assert res.iterations[0]["pairs"] == 18
    assert res.translator.pca.k == 16
    assert res.translator.ednn.input_len == 16


def test_phase1_unreachable_theta_exhausts_chunks_with_flag():
    cfg = tiny_config(theta=1.1)
    res = run_phase1(cfg)
    assert not res.reached_theta
    assert len(res.iterations) == 2
    assert [it["pairs"] for it in res.iterations] == [18, 36]
    assert all(not it["reached_theta"] for it in res.iterations)
    assert 0.0 <= res.final_val_accuracy <= 1.0
    assert set(res.split_idx) == {"train", "test", "val"}
    n = 36
    got = sorted(
        res.split_idx["train"] + res.split_idx["test"] + res.split_idx["val"]
    )
    assert got == list(range(n))


def test_phase2_extraction_is_repeatable_and_checks_topology():
    cfg = tiny_config(theta=0.0)
    res = run_phase1(cfg)
    target = init_mlp(cfg.topology, seed=55)
    m1 = run_phase2(target, res.translator, cfg)
    m2 = run_phase2(target, res.translator, cfg)
    assert m1.data.tobytes() == m2.data.tobytes()
    assert (m1.rows, m1.cols) == matrix_shape(cfg.topology)
    wrong = init_mlp((3, 5, 1), seed=55)
    with pytest.raises(ValueError) as err:
        run_phase2(wrong, res.translator, cfg)
    assert "topology" in str(err.value)


def test_phase2_all_zero_target_noise_off_is_finite():
    cfg = tiny_config(theta=0.0, device=DeviceConfig(
        adc_bits=12, adc_lo=0.0, adc_hi=42.0, noise_sigma=0.0,
        static_power=5.0, dynamic_scale=1.0,
        fixed_point_bits=16, fixed_point_frac_bits=4,
    ))
    res = run_phase1(cfg)
    zero = init_mlp(cfg.topology, seed=0)
    for w in zero.weights:
        w[...] = 0.0
    for b in zero.biases:
        b[...] = 0.0
    matrix = run_phase2(zero, res.translator, cfg)
    assert np.all(np.isfinite(matrix.data))


def test_phase2_detects_corrupt_fixed_input():
    cfg = tiny_config(theta=0.0)
    res = run_phase1(cfg)
    res.translator.fixed.values[0] += 0.5
    with pytest.raises(ValueError) as err:
        run_phase2(init_mlp(cfg.topology, seed=1), res.translator, cfg)
    assert "digest" in str(err.value)


def test_translate_trace_rejects_length_mismatch():
    cfg = tiny_config(theta=0.0)
    res = run_phase1(cfg)
    with pytest.raises(ValueError):
        translate_trace(np.zeros(22), res.translator, cfg.topology)  # fitted length is 21


def test_phase3_zero_epochs_returns_decoded_model_untouched():
    cfg = tiny_config(finetune=FinetuneConfig(epochs_max=0))
    model = init_mlp(cfg.topology, seed=12)
    matrix = coefficients_to_matrix(model)
    d_small = sample_dsmall(gen_synthetic(TASK, 50, seed=5), 10, "balanced", seed=6)
    out, hist = run_phase3(matrix, d_small, cfg, seed=9)
    for a, b in zip(out.weights, model.weights):
        assert np.array_equal(a, b)
    assert hist.train_loss == [] and hist.stopped_epoch == 0


def test_phase3_rejects_insufficient_dsmall():
    cfg = tiny_config()
    matrix = coefficients_to_matrix(init_mlp(cfg.topology, seed=1))
    ds = gen_synthetic(TASK, 40, seed=7)
    single = ds.subset(np.flatnonzero(ds.y == 0))
    with pytest.raises(ValueError) as err:
        run_phase3(matrix, single, cfg, seed=2)
    assert "class" in str(err.value)
    empty = ds.subset(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        run_phase3(matrix, empty, cfg, seed=2)


def test_phase3_from_exact_target_keeps_accuracy():
    clean = TaskSpec(
        name="pico", n_features=3, n_classes=2,
        clusters_per_class=2, separation=3.0, cluster_spread=0.15, seed=1,
    )
    cfg = tiny_config(task=clean)
    pool = gen_synthetic(clean, 400, seed=8)
    test = pool.subset(np.arange(300, 400))
    target = init_mlp(cfg.topology, seed=13)
    train_mlp(
        target, pool.x[:300], pool.y[:300],
        TrainConfig(epochs=40, batch_size=16, lr=0.01, seed=14),
    )
    target_acc = model_accuracy(target, test.x, test.y)
    assert target_acc > 0.9  # separable task; the premise of the check

    d_small = sample_dsmall(pool.subset(np.arange(300)), 20, "balanced", seed=15)
    final, hist = run_phase3(coefficients_to_matrix(target), d_small, cfg, seed=16)
    final_acc = model_accuracy(final, test.x, test.y)
    assert final_acc >= target_acc - 0.02
    assert hist.stopped_epoch >= 1


def test_phase3_is_deterministic_in_seed():
    cfg = tiny_config()
    matrix = coefficients_to_matrix(init_mlp(cfg.topology, seed=17))
    d_small = sample_dsmall(gen_synthetic(TASK, 60, seed=9), 16, "balanced", seed=10)
    a, ha = run_phase3(matrix, d_small, cfg, seed=3)
    b, hb = run_phase3(matrix, d_small, cfg, seed=3)
    c, _ = run_phase3(matrix, d_small, cfg, seed=4)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert ha.train_loss == hb.train_loss
    assert any(
        not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights)
    )


@pytest.mark.parametrize("restore_best", [True, False])
def test_finetune_config_builds_its_train_config(restore_best):
    # every field off both classes' defaults where a value can be; restore_best
    # takes both values because the two classes default it differently
    ft = FinetuneConfig(
        epochs_max=7,
        batch_size=5,
        lr=0.0125,
        dropout=0.15,
        early_stop_patience=3,
        lr_halve_after=2,
        val_frac=0.4,
        restore_best=restore_best,
    )
    assert ft.train_config(99) == TrainConfig(
        epochs=7,
        batch_size=5,
        lr=0.0125,
        dropout=0.15,
        seed=99,
        early_stop_patience=3,
        lr_halve_after=2,
        restore_best=restore_best,
    )


def test_phase1_artifacts_round_trip_to_identical_extraction(tmp_path):
    cfg = tiny_config(theta=0.0)
    res = run_phase1(cfg)
    persist_phase1(tmp_path / "run", res, config_digest="cfg123")
    back, meta = Translator.read(tmp_path / "run", "cfg123")
    assert back.fixed.digest == res.translator.fixed.digest
    assert np.array_equal(back.ednn.param_vector(), res.translator.ednn.param_vector())
    assert np.array_equal(back.pca.components, res.translator.pca.components)
    assert np.array_equal(back.scaler.mean, res.translator.scaler.mean)
    target = init_mlp(cfg.topology, seed=77)
    m_mem = run_phase2(target, res.translator, cfg)
    m_disk = run_phase2(target, back, cfg)
    assert m_mem.data.tobytes() == m_disk.data.tobytes()
    assert (tmp_path / "run" / "pairs" / "traces.f32").exists()
    assert meta["reached_theta"] == res.reached_theta
    assert meta["iterations"] == res.iterations


TRANSLATOR_FILES = (
    "fixed_input.json", "pca.f64", "pca.json", "pca_scaler.json", "ednn.f32", "ednn.json"
)


def _written_translator(run_dir):
    rng = np.random.default_rng(12)
    traces = rng.normal(size=(20, 21))
    pca = pca_fit(traces, 16)
    translator = Translator(
        ednn=build_ednn(16, (2, 3), "desk", seed=23),
        fixed=make_fixed_input(3, master_seed=7),
        pca=pca,
        scaler=Standardizer.fit(pca_transform(pca, traces)),
    )
    translator.write(run_dir, "cfg123", {"tag": "t"})
    return translator, traces


def test_translator_read_then_write_reproduces_all_its_files(tmp_path):
    original, traces = _written_translator(tmp_path / "a")
    back, meta = Translator.read(tmp_path / "a", "cfg123")
    assert np.array_equal(back.fixed.values, original.fixed.values)
    assert back.fixed.digest == original.fixed.digest
    assert np.array_equal(back.pca.mean, original.pca.mean)
    assert np.array_equal(back.pca.components, original.pca.components)
    assert np.array_equal(back.pca.eigenvalues, original.pca.eigenvalues)
    assert np.array_equal(back.scaler.mean, original.scaler.mean)
    assert np.array_equal(back.scaler.std, original.scaler.std)
    assert np.array_equal(back.ednn.param_vector(), original.ednn.param_vector())
    assert np.array_equal(back.predict(traces), original.predict(traces))
    assert meta["rows"] == 2 and meta["cols"] == 3 and meta["tag"] == "t"
    back.write(tmp_path / "b", "cfg123", meta)
    for name in TRANSLATOR_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_translator_read_rejects_truncated_binaries(tmp_path):
    for name in ("pca.f64", "ednn.f32"):
        run = tmp_path / name
        _written_translator(run)
        (run / name).write_bytes((run / name).read_bytes()[:-8])
        with pytest.raises(ValueError):
            Translator.read(run, "cfg123")
