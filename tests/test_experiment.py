"""Transfer-evaluation protocol on a miniature configuration."""

import json

import numpy as np
import pytest

from traceweights.datasets import Dataset, TaskSpec, gen_synthetic
from traceweights.device import DeviceConfig
from traceweights.ednn import EdnnTrainConfig
from traceweights.experiment import (
    ExperimentConfig,
    evaluate_model,
    run_experiment,
    write_report,
)
from traceweights.mlp import MlpModel, TrainConfig, init_mlp
from traceweights.pipeline import FinetuneConfig, PipelineConfig

TASK = TaskSpec(
    name="pico", n_features=3, n_classes=2,
    clusters_per_class=2, separation=2.5, cluster_spread=0.2,
    dsmall_size=10, seed=1,
)
DEVICE = DeviceConfig(
    adc_bits=12, adc_lo=0.0, adc_hi=42.0, noise_sigma=0.15,
    static_power=5.0, dynamic_scale=1.0,
    fixed_point_bits=16, fixed_point_frac_bits=4,
)


def tiny_pipeline():
    return PipelineConfig(
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
        surrogate=TrainConfig(epochs=4, batch_size=8, lr=0.01, dropout=0.0),
        ednn=EdnnTrainConfig(epochs=2, batch_size=9, lr=0.001, tau=0.05, seed=0),
        finetune=FinetuneConfig(epochs_max=12, batch_size=8, lr=0.01),
    )


def tiny_experiment(seeds=2):
    return ExperimentConfig(
        seeds=seeds,
        modes=("balanced", "imbalanced2x"),
        eval_pool_size=200,
        test_frac=0.2,
        target=TrainConfig(epochs=15, batch_size=16, lr=0.01, dropout=0.0),
    )


def test_evaluate_model_binary_and_macro():
    model = MlpModel(
        topology=(1, 1),
        weights=[np.array([[10.0]])],
        biases=[np.array([-5.0])],
    )
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    ds = Dataset(x=x, y=np.array([0, 1, 1, 1]), name="t", n_classes=2)
    out = evaluate_model(model, ds)
    # model predicts [0,0,1,1]: acc 3/4, TP2 FP0 FN1 -> F1 = 0.8
    assert out["accuracy"] == 0.75
    assert out["f1"] == pytest.approx(0.8)

    model3 = init_mlp([2, 4, 3], seed=0)
    ds3 = Dataset(
        x=np.random.default_rng(1).random((30, 2)),
        y=np.random.default_rng(2).integers(0, 3, 30),
        name="t3",
        n_classes=3,
    )
    out3 = evaluate_model(model3, ds3)
    assert 0.0 <= out3["accuracy"] <= 1.0
    assert 0.0 <= out3["f1"] <= 1.0


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=0)
    with pytest.raises(ValueError):
        ExperimentConfig(modes=())
    with pytest.raises(ValueError):
        ExperimentConfig(test_frac=1.0)


def test_run_experiment_report_schema_and_determinism(tmp_path):
    report1 = run_experiment([tiny_pipeline()], tiny_experiment(), out_dir=tmp_path / "a",
                             config_digest="digest-x")
    report2 = run_experiment([tiny_pipeline()], tiny_experiment(), out_dir=tmp_path / "b",
                             config_digest="digest-x")

    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    assert (tmp_path / "a" / "curves.csv").read_bytes() == (
        tmp_path / "b" / "curves.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()

    assert report1["config_digest"] == "digest-x"
    assert report1["seeds"] == 2
    assert report1["modes"] == ["balanced", "imbalanced2x"]
    task = report1["tasks"]["pico"]
    assert task["topology"] == [3, 4, 1]
    ph1 = task["phase1"]
    assert set(ph1) == {"reached_theta", "final_val_accuracy", "test_accuracy", "iterations"}
    for mode in ("balanced", "imbalanced2x"):
        block = task["modes"][mode]
        assert len(block["per_seed"]) == 2
        rec = block["per_seed"][0]
        for key in (
            "seed", "acc_small_only", "f1_small_only", "overfit_epoch_small_only",
            "acc_init_only", "f1_init_only", "acc_p2w", "f1_p2w",
            "overfit_epoch_p2w", "acc_target", "f1_target", "skew_class",
        ):
            assert key in rec
        agg = block["aggregate"]
        assert set(agg) >= {"acc_p2w", "acc_target", "overfit_rate_p2w"}
        assert 0.0 <= agg["overfit_rate_p2w"] <= 1.0
    # balanced draws carry no skew class; imbalanced ones do
    assert all(r["skew_class"] is None for r in task["modes"]["balanced"]["per_seed"])
    assert all(r["skew_class"] in (0, 1) for r in task["modes"]["imbalanced2x"]["per_seed"])
    # round trip through the identical dict
    assert report1 == report2
    assert json.loads((tmp_path / "a" / "report.json").read_text()) == report1


def test_phase1_artifacts_land_in_task_directory(tmp_path):
    run_experiment([tiny_pipeline()], tiny_experiment(seeds=1), out_dir=tmp_path / "r",
                   config_digest="d")
    task_dir = tmp_path / "r" / "pico"
    assert (task_dir / "fixed_input.json").exists()
    assert (task_dir / "ednn.json").exists()
    assert (task_dir / "pca.json").exists()
    assert (task_dir / "pairs" / "traces.f32").exists()
    fixed = json.loads((task_dir / "fixed_input.json").read_text())
    assert fixed["config_digest"] == "d"


def test_curves_csv_layout(tmp_path):
    run_experiment([tiny_pipeline()], tiny_experiment(seeds=1), out_dir=tmp_path / "r",
                   config_digest="d")
    lines = (tmp_path / "r" / "curves.csv").read_text().splitlines()
    assert lines[0] == "task,seed,mode,variant,epoch,split,accuracy"
    assert len(lines) > 1
    cells = lines[1].split(",")
    assert cells[0] == "pico"
    assert cells[3] in ("small_only", "p2w")
    assert cells[5] in ("train", "val")
    float(cells[6])  # parses as a number
    variants = {ln.split(",")[3] for ln in lines[1:]}
    assert variants == {"small_only", "p2w"}
    # within each (seed, mode): every small_only row before any p2w row, and
    # each epoch's train row right before its val row
    rows = [ln.split(",") for ln in lines[1:]]
    for key in {(r[1], r[2]) for r in rows}:
        block = [r for r in rows if (r[1], r[2]) == key]
        order = [r[3] for r in block]
        assert order == sorted(order, key=("small_only", "p2w").index)
        assert [r[5] for r in block] == ["train", "val"] * (len(block) // 2)
        assert all(a[3:5] == b[3:5] for a, b in zip(block[::2], block[1::2]))


def test_summary_csv_one_row_per_task_mode(tmp_path):
    run_experiment([tiny_pipeline()], tiny_experiment(seeds=1), out_dir=tmp_path / "r",
                   config_digest="d")
    lines = (tmp_path / "r" / "summary.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "task", "mode",
        "acc_small_only_mean", "acc_small_only_std", "f1_small_only_mean", "f1_small_only_std",
        "acc_init_only_mean", "acc_init_only_std", "f1_init_only_mean", "f1_init_only_std",
        "acc_p2w_mean", "acc_p2w_std", "f1_p2w_mean", "f1_p2w_std",
        "acc_target_mean", "acc_target_std", "f1_target_mean", "f1_target_std",
        "overfit_rate_small_only", "overfit_rate_p2w",
    ]
    assert len(lines) == 3  # header + balanced + imbalanced2x
    assert lines[1].split(",")[:2] == ["pico", "balanced"]
    assert lines[2].split(",")[:2] == ["pico", "imbalanced2x"]


def test_write_report_without_runner(tmp_path):
    report = {"config_digest": "z", "seeds": 1, "modes": ["balanced"], "tasks": {}}
    write_report(tmp_path / "out", report, curves=[])
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data == report
    assert (tmp_path / "out" / "curves.csv").read_text().splitlines()[0] == (
        "task,seed,mode,variant,epoch,split,accuracy"
    )
