"""Synthetic task generation, chunking, small-set sampling, CSV loading."""

import numpy as np
import pytest

from traceweights.datasets import (
    PRESETS,
    Dataset,
    TaskSpec,
    chunk,
    gen_synthetic,
    load_csv,
    read_dataset,
    sample_dsmall,
    stratified_split,
    write_dataset,
)
from traceweights.mlp import TrainConfig, init_mlp, predict_labels, train_mlp

SPEC2 = TaskSpec(name="t2", n_features=5, n_classes=2, seed=3)
SPEC3 = TaskSpec(name="t3", n_features=4, n_classes=3, seed=4)


def test_generation_is_deterministic_to_the_byte():
    a = gen_synthetic(SPEC2, 200)
    b = gen_synthetic(SPEC2, 200)
    assert a.x.tobytes() == b.x.tobytes()
    assert np.array_equal(a.y, b.y)
    c = gen_synthetic(SPEC2, 200, seed=99)
    assert a.x.tobytes() != c.x.tobytes()


def test_generation_covers_every_class_and_scales_to_unit_box():
    ds = gen_synthetic(SPEC3, 151)
    assert ds.n == 151 and ds.d == 4 and ds.n_classes == 3
    assert set(np.unique(ds.y)) == {0, 1, 2}
    counts = np.bincount(ds.y, minlength=ds.n_classes)
    assert int(counts.max() - counts.min()) <= 1
    assert float(ds.x.min()) >= 0.0 and float(ds.x.max()) <= 1.0
    assert float(ds.x.min(axis=0).max()) == 0.0  # each dim touches 0
    assert float(ds.x.max(axis=0).min()) == 1.0  # and 1


def test_n_equals_class_count_gives_one_of_each_label():
    ds = gen_synthetic(SPEC3, 3)
    assert sorted(ds.y.tolist()) == [0, 1, 2]


def test_near_zero_separation_is_unlearnable():
    spec = TaskSpec(name="blur", n_features=6, n_classes=2, separation=0.01,
                    cluster_spread=1.0, seed=5)
    ds = gen_synthetic(spec, 600)
    model = init_mlp([6, 8, 1], seed=0)
    train_mlp(model, ds.x[:400], ds.y[:400], TrainConfig(epochs=30, seed=0))
    acc = np.mean(predict_labels(model, ds.x[400:]) == ds.y[400:])
    assert abs(acc - 0.5) <= 0.05


def test_presets_match_experiment_shapes():
    names = {p.name for p in PRESETS.values()}
    assert names == {"binary-wide", "binary-narrow", "ternary"}
    bw = PRESETS["binary-wide"]
    assert (bw.n_features, bw.n_classes, bw.dsmall_size) == (19, 2, 22)
    bn = PRESETS["binary-narrow"]
    assert (bn.n_features, bn.n_classes, bn.dsmall_size) == (9, 2, 45)
    tern = PRESETS["ternary"]
    assert (tern.n_features, tern.n_classes) == (13, 3)


def test_chunk_partition_sizes_and_ratios():
    ds = gen_synthetic(SPEC2, 100)
    chunks = chunk(ds, 10)
    assert len(chunks) == 10
    assert all(c.n == 10 for c in chunks)
    # disjoint union: every sample appears exactly once across chunks
    seen = np.concatenate([c.x @ np.arange(1.0, 6.0) for c in chunks])
    whole = ds.x @ np.arange(1.0, 6.0)
    assert sorted(seen.tolist()) == sorted(whole.tolist())
    # per-chunk class ratios within one sample of the global ratio
    global_counts = np.bincount(ds.y, minlength=ds.n_classes)
    for c in chunks:
        expect = global_counts * c.n / ds.n
        assert np.all(np.abs(np.bincount(c.y, minlength=c.n_classes) - expect) <= 1.0)


def test_chunk_rejects_too_many_chunks():
    ds = gen_synthetic(SPEC2, 100)
    with pytest.raises(ValueError):
        chunk(ds, 51)  # ceil: 51 * 2 classes > 100 samples
    with pytest.raises(ValueError):
        chunk(ds, 0)
    assert len(chunk(ds, 50)) == 50


def test_chunking_is_deterministic():
    ds = gen_synthetic(SPEC3, 90)
    a = chunk(ds, 9)
    b = chunk(ds, 9)
    for ca, cb in zip(a, b):
        assert ca.x.tobytes() == cb.x.tobytes()
        assert np.array_equal(ca.y, cb.y)


def test_dsmall_balanced_frozen_shapes():
    ds2 = gen_synthetic(SPEC2, 400)
    out = sample_dsmall(ds2, 22, "balanced", seed=1)
    assert sorted(np.bincount(out.y, minlength=out.n_classes).tolist()) == [11, 11]
    ds3 = gen_synthetic(SPEC3, 400)
    out3 = sample_dsmall(ds3, 150, "balanced", seed=1)
    assert np.bincount(out3.y, minlength=out3.n_classes).tolist() == [50, 50, 50]


def test_dsmall_imbalanced2x_skews_one_class():
    ds = gen_synthetic(SPEC2, 400)
    out = sample_dsmall(ds, 40, "imbalanced2x", seed=2)
    counts = sorted(np.bincount(out.y, minlength=out.n_classes).tolist())
    assert counts == [13, 27]
    assert out.imbalance["mode"] == "imbalanced2x"
    assert out.imbalance["skew_class"] in (0, 1)
    assert np.bincount(out.y, minlength=out.n_classes)[out.imbalance["skew_class"]] == 27


def test_dsmall_always_contains_every_class():
    ds = gen_synthetic(SPEC3, 300)
    for seed in range(10):
        for mode in ("balanced", "imbalanced2x"):
            out = sample_dsmall(ds, 12, mode, seed=seed)
            assert np.all(np.bincount(out.y, minlength=out.n_classes) >= 1)
            assert out.n == 12


def test_dsmall_rejects_undersized_requests():
    ds = gen_synthetic(SPEC3, 300)
    with pytest.raises(ValueError):
        sample_dsmall(ds, 5, "balanced", seed=0)  # below 2 per class
    with pytest.raises(ValueError):
        sample_dsmall(ds, 12, "sideways", seed=0)
    tiny = gen_synthetic(SPEC2, 6)
    with pytest.raises(ValueError):
        sample_dsmall(tiny, 20, "balanced", seed=0)  # more than the data has


def test_dsmall_is_sampling_without_replacement():
    ds = gen_synthetic(SPEC2, 60)
    out = sample_dsmall(ds, 30, "balanced", seed=3)
    keys = [row.tobytes() for row in out.x]
    assert len(set(keys)) == 30


def test_stratified_split_keeps_classes_on_both_sides():
    ds = gen_synthetic(SPEC3, 90)
    train, val = stratified_split(ds, 0.2, seed=4)
    assert train.n + val.n == 90
    assert np.all(np.bincount(train.y, minlength=train.n_classes) >= 1)
    assert np.all(np.bincount(val.y, minlength=val.n_classes) >= 1)
    assert val.n == pytest.approx(18, abs=3)
    with pytest.raises(ValueError):
        stratified_split(ds, 0.0, seed=0)


def test_csv_golden_file(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(
        "a,b,label\n"
        "0.0,5.0,0\n"
        "1.0,5.0,1\n"
        "2.0,5.0,1\n"
    )
    ds = load_csv(p, "label")
    assert ds.n == 3 and ds.d == 2 and ds.n_classes == 2
    assert ds.y.tolist() == [0, 1, 1]
    assert ds.x[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert ds.x[:, 1].tolist() == [0.0, 0.0, 0.0]  # constant column -> zeros
    assert ds.scaling["columns"] == ["a", "b"]


def test_csv_errors_carry_row_and_column_coordinates(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,label\n1,2,0\n3,4\n")
    with pytest.raises(ValueError) as err:
        load_csv(ragged, "label")
    assert "row 3" in str(err.value)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n1,x,0\n")
    with pytest.raises(ValueError) as err:
        load_csv(bad, "label")
    assert "row 2" in str(err.value) and "'b'" in str(err.value)

    frac = tmp_path / "frac.csv"
    frac.write_text("a,label\n1,0.5\n")
    with pytest.raises(ValueError) as err:
        load_csv(frac, "label")
    assert "label" in str(err.value)

    missing = tmp_path / "missing.csv"
    missing.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_csv(missing, "label")


def test_csv_rejects_non_finite_cells(tmp_path):
    # float() parses these, and min-max scaling would zero the whole column
    for cell in ("nan", "inf", "-inf"):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"a,b,label\n0.1,0.3,0\n0.5,0.2,1\n0.3,{cell},1\n0.9,0.4,0\n")
        with pytest.raises(ValueError) as err:
            load_csv(p, "label")
        assert "row 4" in str(err.value) and "'b'" in str(err.value)


def test_csv_loader_round_trip_is_idempotent(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b,label\n0.25,9,0\n0.5,7,1\n1.0,8,1\n0.125,6,0\n")
    ds = load_csv(p, "label")
    write_dataset(tmp_path / "canon", ds)
    back = read_dataset(tmp_path / "canon")
    assert back.x.tobytes() == ds.x.tobytes()
    assert np.array_equal(back.y, ds.y)
    write_dataset(tmp_path / "canon2", back)
    assert (tmp_path / "canon" / "data.f32").read_bytes() == (
        tmp_path / "canon2" / "data.f32"
    ).read_bytes()


def test_dataset_container_round_trip_preserves_metadata(tmp_path):
    ds = sample_dsmall(gen_synthetic(SPEC2, 100), 20, "imbalanced2x", seed=5)
    write_dataset(tmp_path / "d", ds, meta={"origin": "test"})
    back = read_dataset(tmp_path / "d")
    assert back.imbalance == ds.imbalance
    assert back.name == ds.name
    assert back.n_classes == 2
    assert back.x.tobytes() == ds.x.tobytes()


def test_dataset_container_detects_truncation(tmp_path):
    ds = gen_synthetic(SPEC2, 10)
    write_dataset(tmp_path / "d", ds)
    payload = (tmp_path / "d" / "data.f32").read_bytes()
    (tmp_path / "d" / "data.f32").write_bytes(payload[:-4])
    with pytest.raises(ValueError):
        read_dataset(tmp_path / "d")


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(name="x", n_features=0, n_classes=2)
    with pytest.raises(ValueError):
        TaskSpec(name="x", n_features=3, n_classes=1)
    with pytest.raises(ValueError):
        gen_synthetic(SPEC2, 0)


def test_subset_views_are_copies():
    ds = gen_synthetic(SPEC2, 30)
    sub = ds.subset(np.arange(5))
    sub.x[0, 0] = -99.0
    assert ds.x[0, 0] != -99.0
