"""CLI contract: exit codes, artifact layout, digests, stage-tagged logs."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from traceweights.cli import main
from traceweights.config import load_run_config
from traceweights.codec import WeightsMatrix, matrix_to_coefficients
from traceweights.datasets import read_dataset, write_dataset
from traceweights.device import write_trace_container
from traceweights.mlp import init_mlp, model_to_dict


TINY_CONFIG = {
    "scale": "desk",
    "master_seed": 11,
    "device": {
        "adc_bits": 12,
        "adc_lo": 0.0,
        "adc_hi": 42.0,
        "noise_sigma": 0.15,
        "static_power": 5.0,
        "dynamic_scale": 1.0,
        "samples_per_mac": 1,
        "fixed_point_bits": 16,
        "fixed_point_frac_bits": 4,
        "rng_seed": 0,
    },
    "tasks": [{"preset": "binary-narrow", "hidden": [4], "dsmall_size": 12}],
    "phase1": {
        "chunks": 2,
        "reps": 18,
        "pool_size": 60,
        "pca_k": 16,
        "theta": 0.0,
        "splits": [0.75, 0.2, 0.05],
        "surrogate": {"epochs": 2, "batch_size": 8, "lr": 0.01, "dropout": 0.3},
        "ednn": {"epochs": 2, "batch_size": 9, "lr": 0.001, "tau": 0.05},
    },
    "finetune": {
        "epochs_max": 4,
        "batch_size": 8,
        "lr": 0.01,
        "dropout": 0.3,
        "early_stop_patience": 10,
        "lr_halve_after": 5,
        "val_frac": 0.25,
        "restore_best": True,
    },
    "experiment": {
        "seeds": 2,
        "modes": ["balanced"],
        "eval_pool_size": 120,
        "test_frac": 0.2,
        "target": {"epochs": 3, "batch_size": 16, "lr": 0.01, "dropout": 0.3},
    },
}

# binary-narrow with hidden [4]: topology (9, 4, 1), one sample per MAC
TRACE_LEN = (9 + 1) * 4 + (4 + 1) * 1


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_cfg(cli_root):
    path = cli_root / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def tiny_digest(tiny_cfg):
    return load_run_config(tiny_cfg).digest


@pytest.fixture(scope="module")
def run_dir(cli_root, tiny_cfg):
    out = cli_root / "run"
    rc = main(["train-ednn", "--config", tiny_cfg, "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def data_dir(cli_root, tiny_cfg):
    out = cli_root / "data"
    rc = main(["gen-data", "--config", tiny_cfg, "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def victim_path(cli_root):
    model = init_mlp((9, 4, 1), seed=3)
    path = cli_root / "victim.json"
    path.write_text(json.dumps(model_to_dict(model)))
    return str(path)


@pytest.fixture(scope="module")
def extract_dir(cli_root, tiny_cfg, run_dir, victim_path):
    out = cli_root / "extract"
    rc = main(
        [
            "extract",
            "--config",
            tiny_cfg,
            "--run",
            str(run_dir),
            "--model",
            victim_path,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def test_validate_config_shipped_desk_exits_zero(capsys):
    assert main(["validate-config"]) == 0
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert doc["valid"] is True
    assert len(doc["digest"]) == 16
    assert "stage=validate-config" in out.err


def test_validate_config_seed_override_changes_digest(capsys):
    assert main(["validate-config"]) == 0
    base = json.loads(capsys.readouterr().out)["digest"]
    assert main(["validate-config", "--seed", "99"]) == 0
    assert json.loads(capsys.readouterr().out)["digest"] != base


def test_console_script_entry_point():
    proc = subprocess.run(
        ["traceweights", "validate-config"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train-ednn"]) == 1  # --out is required
    assert main(["validate-config", "--seed", "notanint"]) == 1
    assert "stage=usage" in capsys.readouterr().err


def test_config_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["validate-config", "--config", str(missing)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate-config", "--config", str(bad)]) == 2

    unknown = tmp_path / "unknown.json"
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["device"]["adc_speed"] = 1
    unknown.write_text(json.dumps(doc))
    assert main(["validate-config", "--config", str(unknown)]) == 2
    err = capsys.readouterr().err
    assert "stage=validate-config" in err
    assert "adc_speed" in err


def test_unknown_task_name_exits_two(tiny_cfg, tmp_path, capsys):
    rc = main(
        [
            "gen-data",
            "--config",
            tiny_cfg,
            "--task",
            "no-such-task",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "no task named" in capsys.readouterr().err


def test_every_subcommand_with_task_checks_its_name(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    extra = {
        "gen-data": ["--csv", str(tmp_path / "absent.csv"), "--label-column", "label"],
        "prepare-pairs": [],
        "train-ednn": [],
        "extract": ["--run", out, "--model", out],
        "finetune": ["--matrix", out, "--data", out],
    }
    for command, flags in extra.items():
        argv = [command, "--config", tiny_cfg, "--task", "no-such-task", "--out", out, *flags]
        assert main(argv) == 2, command
        err = capsys.readouterr().err
        assert f"stage={command} error=ValidationError" in err and "no task named" in err
    for command in ("evaluate", "experiment", "validate-config"):
        assert main([command, "--task", "binary-narrow"]) == 1, command
    assert "unrecognized arguments: --task" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_data_writes_dataset_with_digest(data_dir, tiny_digest):
    ds = read_dataset(data_dir)
    assert ds.n == TINY_CONFIG["phase1"]["pool_size"]
    assert ds.d == 9 and ds.n_classes == 2
    meta = json.loads((data_dir / "data.json").read_text())
    assert meta["config_digest"] == tiny_digest


def test_gen_data_n_flag_overrides_count(cli_root, tiny_cfg):
    out = cli_root / "data24"
    assert main(["gen-data", "--config", tiny_cfg, "--n", "24", "--out", str(out)]) == 0
    assert read_dataset(out).n == 24


def test_gen_data_csv_roundtrip(cli_root, tiny_cfg, capsys):
    csv = cli_root / "toy.csv"
    csv.write_text("a,b,label\n0.0,1.0,0\n2.0,3.0,1\n4.0,5.0,1\n1.0,0.0,0\n")
    out = cli_root / "csvdata"
    rc = main(
        [
            "gen-data",
            "--config",
            tiny_cfg,
            "--csv",
            str(csv),
            "--label-column",
            "label",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    ds = read_dataset(out)
    assert ds.n == 4 and ds.d == 2 and ds.n_classes == 2

    rc = main(
        ["gen-data", "--config", tiny_cfg, "--csv", str(csv), "--out", str(cli_root / "x")]
    )
    assert rc == 2
    assert "--label-column" in capsys.readouterr().err


def test_prepare_pairs_writes_containers(cli_root, tiny_cfg, tiny_digest):
    out = cli_root / "pairs_run"
    rc = main(["prepare-pairs", "--config", tiny_cfg, "--out", str(out)])
    assert rc == 0
    fixed = json.loads((out / "fixed_input.json").read_text())
    assert fixed["config_digest"] == tiny_digest
    assert len(fixed["values"]) == 9
    meta = json.loads((out / "pairs" / "meta.json").read_text())
    assert meta["config_digest"] == tiny_digest
    assert meta["count"] == TINY_CONFIG["phase1"]["reps"]
    assert meta["trace_len"] == TRACE_LEN
    mats = json.loads((out / "pairs" / "matrices.json").read_text())
    assert (mats["rows"], mats["cols"]) == (5, 10)
    assert (out / "pairs" / "traces.f32").exists()
    assert (out / "pairs" / "matrices.f32").exists()


def test_prepare_pairs_iteration_must_name_a_chunk_count(cli_root, tiny_cfg, capsys):
    for iteration in ("0", "3"):
        out = cli_root / f"pairs_iteration_{iteration}"
        rc = main(
            ["prepare-pairs", "--config", tiny_cfg, "--iteration", iteration, "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage=prepare-pairs" in err and f"--iteration {iteration}" in err
        assert not out.exists()
    out = cli_root / "pairs_iteration_2"
    assert main(["prepare-pairs", "--config", tiny_cfg, "--iteration", "2", "--out", str(out)]) == 0
    meta = json.loads((out / "pairs" / "meta.json").read_text())
    assert meta["count"] == 2 * TINY_CONFIG["phase1"]["reps"]


def test_train_ednn_run_dir_layout(run_dir, tiny_digest, capsys):
    for name in ("config.json", "fixed_input.json", "pairs", "pca.json", "ednn.json"):
        assert (run_dir / name).exists()
    cfg_copy = json.loads((run_dir / "config.json").read_text())
    assert cfg_copy["config_digest"] == tiny_digest
    assert cfg_copy["master_seed"] == 11
    ednn_meta = json.loads((run_dir / "ednn.json").read_text())
    assert ednn_meta["config_digest"] == tiny_digest


def test_extract_from_model_writes_matrix(extract_dir, run_dir, tiny_digest):
    doc = json.loads((extract_dir / "extracted_matrix.json").read_text())
    assert doc["config_digest"] == tiny_digest
    fixed = json.loads((run_dir / "fixed_input.json").read_text())
    assert doc["fixed_digest"] == fixed["digest"]
    matrix = WeightsMatrix.from_json_dict(
        {k: doc[k] for k in ("rows", "cols", "topology", "data")}
    )
    assert matrix.topology == (9, 4, 1)
    decoded = matrix_to_coefficients(matrix, matrix.topology)
    assert decoded.weights[0].shape == (9, 4) and decoded.biases[1].shape == (1,)


def test_extract_from_trace_container(cli_root, tiny_cfg, run_dir):
    tr_dir = cli_root / "trace_ok"
    write_trace_container(tr_dir, np.zeros((2, TRACE_LEN)), {"rng_seed": 0})
    out = cli_root / "extract_trace"
    rc = main(
        [
            "extract",
            "--config",
            tiny_cfg,
            "--run",
            str(run_dir),
            "--trace",
            str(tr_dir),
            "--trace-index",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "extracted_matrix.json").read_text())
    assert len(doc["data"]) == 5 and len(doc["data"][0]) == 10


def test_run_config_copy_loads_back_to_its_digest(cli_root, run_dir, tiny_digest, capsys):
    copy = run_dir / "config.json"
    assert load_run_config(copy).digest == tiny_digest
    assert main(["validate-config", "--config", str(copy)]) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == tiny_digest

    out = cli_root / "extract_run_config"
    trace = cli_root / "trace_run_config"
    write_trace_container(trace, np.zeros((1, TRACE_LEN)), {"rng_seed": 0})
    rc = main(
        [
            "extract",
            "--config",
            str(copy),
            "--run",
            str(run_dir),
            "--trace",
            str(trace),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "extracted_matrix.json").read_text())
    assert doc["config_digest"] == tiny_digest

    edited = cli_root / "edited_config.json"
    doc = json.loads(copy.read_text())
    doc["master_seed"] += 1
    edited.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate-config", "--config", str(edited)]) == 2
    err = capsys.readouterr().err
    assert "stage=validate-config" in err and tiny_digest in err


def test_extract_rejects_run_dir_of_another_config(
    cli_root, tiny_cfg, run_dir, victim_path, tiny_digest, capsys
):
    other = load_run_config(tiny_cfg, seed_override=12).digest
    assert other != tiny_digest
    rc = main(
        [
            "extract",
            "--config",
            tiny_cfg,
            "--seed",
            "12",
            "--run",
            str(run_dir),
            "--model",
            victim_path,
            "--out",
            str(cli_root / "extract_other"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=extract" in err
    assert tiny_digest in err and other in err
    assert not (cli_root / "extract_other").exists()


def _extract_copy_of_run(cli_root, tiny_cfg, run_dir, victim_path, name, edit):
    run = cli_root / f"run_{name}"
    shutil.copytree(run_dir, run)
    edit(run)
    out = cli_root / f"extract_{name}"
    rc = main(
        ["extract", "--config", tiny_cfg, "--run", str(run), "--model", victim_path,
         "--out", str(out)]
    )
    assert not out.exists()
    return rc


@pytest.mark.parametrize("name", ["pca.json", "pca_scaler.json", "fixed_input.json"])
def test_extract_refuses_run_dir_with_a_file_of_another_config(
    cli_root, tiny_cfg, run_dir, victim_path, tiny_digest, name, capsys
):
    def restamp(run):
        doc = json.loads((run / name).read_text())
        doc["config_digest"] = "0123456789abcdef"
        (run / name).write_text(json.dumps(doc))

    assert _extract_copy_of_run(cli_root, tiny_cfg, run_dir, victim_path, name, restamp) == 2
    err = capsys.readouterr().err
    assert "stage=extract" in err and name in err
    assert tiny_digest in err and "0123456789abcdef" in err


def test_extract_refuses_run_dir_written_before_the_scaler_stamp(
    cli_root, tiny_cfg, run_dir, victim_path, tiny_digest, capsys
):
    def unstamp(run):
        doc = json.loads((run / "pca_scaler.json").read_text())
        del doc["config_digest"]
        (run / "pca_scaler.json").write_text(json.dumps(doc, indent=2, sort_keys=True))

    rc = _extract_copy_of_run(cli_root, tiny_cfg, run_dir, victim_path, "unstamped", unstamp)
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=extract" in err and "pca_scaler.json" in err
    assert "config digest None" in err and tiny_digest in err


def test_extract_run_dir_without_scaler_exits_two(
    cli_root, tiny_cfg, run_dir, victim_path, capsys
):
    def drop_scaler(run):
        (run / "pca_scaler.json").unlink()

    rc = _extract_copy_of_run(cli_root, tiny_cfg, run_dir, victim_path, "no_scaler", drop_scaler)
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=extract" in err and "pca_scaler.json" in err


def test_extract_run_dir_with_only_a_float64_checkpoint_exits_two(
    cli_root, tiny_cfg, run_dir, victim_path, capsys
):
    def to_float64(run):
        # the layout run directories had before the EDNN ran in float32
        flat = np.fromfile(run / "ednn.f32", dtype="<f4")
        flat.astype("<f8").tofile(run / "ednn.f64")
        (run / "ednn.f32").unlink()

    rc = _extract_copy_of_run(cli_root, tiny_cfg, run_dir, victim_path, "f64", to_float64)
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=extract" in err and "ednn.f32" in err


def test_extract_length_mismatch_exits_two_naming_topology(
    cli_root, tiny_cfg, run_dir, capsys
):
    tr_dir = cli_root / "trace_bad"
    write_trace_container(tr_dir, np.zeros((1, TRACE_LEN + 1)), {"rng_seed": 0})
    rc = main(
        [
            "extract",
            "--config",
            tiny_cfg,
            "--run",
            str(run_dir),
            "--trace",
            str(tr_dir),
            "--out",
            str(cli_root / "extract_bad"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=extract" in err
    assert "violates topology" in err
    assert "(9, 4, 1)" in err


@pytest.mark.parametrize("index", [-1, 2])
def test_extract_trace_index_outside_the_container_exits_two(
    cli_root, tiny_cfg, run_dir, index, capsys
):
    tr_dir = cli_root / f"trace_index_{index}"
    write_trace_container(tr_dir, np.zeros((2, TRACE_LEN)), {"rng_seed": 0})
    out = cli_root / f"extract_index_{index}"
    rc = main(
        ["extract", "--config", tiny_cfg, "--run", str(run_dir), "--trace", str(tr_dir),
         "--trace-index", str(index), "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=extract" in err and f"--trace-index {index}" in err and "2 rows" in err
    assert not out.exists()


def test_extract_needs_exactly_one_source(cli_root, tiny_cfg, run_dir, victim_path, capsys):
    tr_dir = cli_root / "trace_ok"
    base = [
        "extract",
        "--config",
        tiny_cfg,
        "--run",
        str(run_dir),
        "--out",
        str(cli_root / "extract_dup"),
    ]
    assert main(base + ["--model", victim_path, "--trace", str(tr_dir)]) == 2
    assert main(base) == 2
    assert "exactly one of --model or --trace" in capsys.readouterr().err


def test_extract_nonfinite_trace_exits_three(cli_root, tiny_cfg, run_dir, capsys):
    tr_dir = cli_root / "trace_nan"
    write_trace_container(tr_dir, np.full((1, TRACE_LEN), np.nan), {"rng_seed": 0})
    rc = main(
        [
            "extract",
            "--config",
            tiny_cfg,
            "--run",
            str(run_dir),
            "--trace",
            str(tr_dir),
            "--out",
            str(cli_root / "extract_nan"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "stage=extract" in err
    assert "NumericalError" in err


def test_finetune_writes_model_and_curves(cli_root, tiny_cfg, extract_dir, data_dir, tiny_digest):
    out = cli_root / "finetuned"
    rc = main(
        [
            "finetune",
            "--config",
            tiny_cfg,
            "--matrix",
            str(extract_dir / "extracted_matrix.json"),
            "--data",
            str(data_dir),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "final_model.json").read_text())
    assert doc["config_digest"] == tiny_digest
    assert doc["topology"] == [9, 4, 1]
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "epoch,split,accuracy"
    assert len(curves) > 1


def test_finetune_epochs_override_zero_keeps_decoded_model(
    cli_root, tiny_cfg, extract_dir, data_dir
):
    out = cli_root / "finetuned0"
    rc = main(
        [
            "finetune",
            "--config",
            tiny_cfg,
            "--matrix",
            str(extract_dir / "extracted_matrix.json"),
            "--data",
            str(data_dir),
            "--epochs-max",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "final_model.json").read_text())
    matrix_doc = json.loads((extract_dir / "extracted_matrix.json").read_text())
    matrix = WeightsMatrix.from_json_dict(
        {k: matrix_doc[k] for k in ("rows", "cols", "topology", "data")}
    )
    decoded = matrix_to_coefficients(matrix, matrix.topology)
    assert np.allclose(np.asarray(doc["weights"][0]), decoded.weights[0])
    assert (out / "curves.csv").read_text() == "epoch,split,accuracy\n"


def test_finetune_negative_epochs_max_exits_two(cli_root, tiny_cfg, extract_dir, data_dir, capsys):
    out = cli_root / "finetuned_negative"
    rc = main(
        [
            "finetune",
            "--config",
            tiny_cfg,
            "--matrix",
            str(extract_dir / "extracted_matrix.json"),
            "--data",
            str(data_dir),
            "--epochs-max",
            "-1",
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=finetune error=ValueError" in err and "epochs_max must be >= 0" in err
    assert not out.exists()


def test_finetune_non_finite_data_exits_two(cli_root, tiny_cfg, extract_dir, data_dir, capsys):
    ds = read_dataset(data_dir)
    ds.x[:, 0] = np.inf
    bad = cli_root / "data_inf"
    write_dataset(bad, ds)
    rc = main(
        [
            "finetune",
            "--config",
            tiny_cfg,
            "--matrix",
            str(extract_dir / "extracted_matrix.json"),
            "--data",
            str(bad),
            "--out",
            str(cli_root / "finetuned_inf"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=finetune" in err
    assert "error=ValueError" in err and str(bad) in err and "not a finite number" in err
    assert not (cli_root / "finetuned_inf").exists()


@pytest.mark.parametrize("label", [7.0, 0.5, -1.0])
def test_finetune_label_outside_the_classes_exits_two(
    cli_root, tiny_cfg, extract_dir, data_dir, label, capsys
):
    ds = read_dataset(data_dir)
    ds.y = ds.y.astype(np.float64)
    ds.y[0] = label
    bad = cli_root / f"data_label_{label}"
    write_dataset(bad, ds)
    out = cli_root / f"finetuned_label_{label}"
    rc = main(
        [
            "finetune",
            "--config",
            tiny_cfg,
            "--matrix",
            str(extract_dir / "extracted_matrix.json"),
            "--data",
            str(bad),
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=finetune error=ValueError" in err
    assert str(bad / "data.f32") in err and "not an integer in [0, 2)" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def ternary_dir(cli_root, data_dir):
    # 9 features like binary-narrow, but 3 classes: no (9, 4, 1) model fits it
    ds = read_dataset(data_dir)
    ds.n_classes = 3
    ds.y[::3] = 2
    out = cli_root / "data_ternary"
    write_dataset(out, ds)
    return out


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_data_of_another_class_count_exits_two(
    cli_root, tiny_cfg, extract_dir, victim_path, ternary_dir, command, capsys
):
    model = {
        "finetune": ["--matrix", str(extract_dir / "extracted_matrix.json")],
        "evaluate": ["--model", victim_path],
    }[command]
    out = cli_root / f"{command}_ternary"
    rc = main([command, "--config", tiny_cfg, *model, "--data", str(ternary_dir),
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"stage={command} error=ValueError" in captured.err
    assert "3 classes, which need a 3-unit head; topology (9, 4, 1) has 1" in captured.err
    assert captured.out == "" and not out.exists()


def test_finetune_non_finite_matrix_cell_exits_two(
    cli_root, tiny_cfg, extract_dir, data_dir, capsys
):
    doc = json.loads((extract_dir / "extracted_matrix.json").read_text())
    doc["data"][0][0] = float("nan")
    bad = cli_root / "matrix_nan.json"
    bad.write_text(json.dumps(doc))
    for epochs in ([], ["--epochs-max", "0"]):
        out = cli_root / f"finetuned_nan{len(epochs)}"
        rc = main(["finetune", "--config", tiny_cfg, "--matrix", str(bad), "--data",
                   str(data_dir), *epochs, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage=finetune error=ValueError" in err and "not a finite number" in err
        assert not out.exists()


def _extra_layer(doc):
    doc["weights"].append([[1.0]])
    doc["biases"].append([0.0])


def _nan_bias(doc):
    doc["biases"][1][0] = float("nan")


@pytest.mark.parametrize(
    "defect, detail",
    [(_extra_layer, "layer 2: 3 weight and 3 bias arrays"), (_nan_bias, "layer 1 holds")],
    ids=["extra_layer", "nan_bias"],
)
def test_model_that_does_not_fit_its_topology_exits_two(
    cli_root, tiny_cfg, run_dir, victim_path, data_dir, defect, detail, capsys
):
    doc = json.loads(Path(victim_path).read_text())
    defect(doc)
    bad = cli_root / f"victim_{defect.__name__}.json"
    bad.write_text(json.dumps(doc))
    sources = {"evaluate": ["--data", str(data_dir)], "extract": ["--run", str(run_dir)]}
    for command, source in sources.items():
        out = cli_root / f"{command}{defect.__name__}"
        rc = main([command, "--config", tiny_cfg, "--model", str(bad), *source, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"stage={command} error=ValueError" in err and detail in err
        assert not out.exists()


def test_evaluate_prints_metrics(cli_root, tiny_cfg, victim_path, data_dir, capsys):
    rc = main(
        ["evaluate", "--config", tiny_cfg, "--model", victim_path, "--data", str(data_dir)]
    )
    assert rc == 0
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert 0.0 <= doc["f1"] <= 1.0
    assert "config_digest" in doc
    assert "stage=evaluate" in out.err

    metrics_out = cli_root / "metrics"
    rc = main(
        [
            "evaluate",
            "--config",
            tiny_cfg,
            "--model",
            victim_path,
            "--data",
            str(data_dir),
            "--out",
            str(metrics_out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    written = json.loads((metrics_out / "metrics.json").read_text())
    assert written["accuracy"] == doc["accuracy"]


def test_experiment_tiny_end_to_end(cli_root, tiny_cfg, tiny_digest, capsys):
    out = cli_root / "exp"
    rc = main(["experiment", "--config", tiny_cfg, "--out", str(out)])
    assert rc == 0
    assert "stage=experiment" in capsys.readouterr().err
    for name in ("config.json", "report.json", "summary.csv", "curves.csv"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["config_digest"] == tiny_digest
    assert report["seeds"] == 2
    task = report["tasks"]["binary-narrow"]
    assert set(task["modes"]) == {"balanced"}
    assert len(task["modes"]["balanced"]["per_seed"]) == 2
    assert not list(out.rglob("*.tmp"))


def test_experiment_at_two_threads_is_byte_identical_run_to_run(tiny_cfg, tmp_path):
    # a fresh interpreter each: --threads pins BLAS only before numpy loads
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        argv = ["experiment", "--config", tiny_cfg, "--threads", "2", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "traceweights.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1] and files[0]
    differ = [f for f in files[0] if (outs[0] / f).read_bytes() != (outs[1] / f).read_bytes()]
    assert not differ


def test_no_writes_outside_out(cli_root, tiny_cfg, tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.chdir(scratch)

    def snapshot():
        trees = []
        for root in (scratch, Path(tiny_cfg).parent):
            trees.extend(
                p.relative_to(root).as_posix()
                for p in sorted(root.rglob("*"))
                if "out_only" not in p.parts
            )
        return trees

    before = snapshot()
    out = scratch / "out_only"
    rc = main(["prepare-pairs", "--config", tiny_cfg, "--out", str(out)])
    assert rc == 0
    assert snapshot() == before
    assert (out / "fixed_input.json").exists()
    assert not list(out.rglob("*.tmp"))
