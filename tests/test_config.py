"""Config schema validation and assembly of run objects."""

import json

import pytest

from traceweights.config import (
    RunConfig,
    ValidationError,
    load_run_config,
    shipped_config_path,
    validate_config_dict,
)
from traceweights.mlp import TrainConfig

MINIMAL = {
    "scale": "desk",
    "master_seed": 3,
    "tasks": [{"preset": "binary-narrow", "hidden": [4, 4]}],
}


def _write(tmp_path, d, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return p


def test_shipped_configs_validate_and_build():
    for scale in ("desk", "paper"):
        path = shipped_config_path(scale)
        assert path.exists()
        cfg = load_run_config(path)
        assert isinstance(cfg, RunConfig)
        assert cfg.scale == scale
        assert len(cfg.pipelines) == 3
        names = [p.task.name for p in cfg.pipelines]
        assert names == ["binary-wide", "binary-narrow", "ternary"]
        for p in cfg.pipelines:
            assert p.topology[0] == p.task.n_features
            assert p.theta == 0.85
    with pytest.raises(ValidationError):
        shipped_config_path("bench")


def test_desk_config_frozen_parameters():
    cfg = load_run_config(shipped_config_path("desk"))
    assert cfg.master_seed == 7
    p = cfg.pipelines[0]
    assert p.chunks == 2 and p.reps == 300 and p.pool_size == 600
    assert p.pca_k == 256
    assert p.splits == (0.75, 0.20, 0.05)
    assert p.topology == (19, 16, 8, 8, 8, 1)
    assert cfg.device.fixed_point_frac_bits == 4
    assert cfg.device.noise_sigma == 0.15
    assert cfg.experiment.seeds == 20
    assert cfg.experiment.modes == ("balanced", "imbalanced2x")
    tern = cfg.pipelines[2]
    assert tern.topology[-1] == 3
    assert tern.task.dsmall_size == 75


def test_digest_is_stable_and_content_sensitive(tmp_path):
    p1 = _write(tmp_path, MINIMAL, "a.json")
    p2 = _write(tmp_path, dict(MINIMAL, master_seed=4), "b.json")
    d1 = load_run_config(p1).digest
    d1_again = load_run_config(p1).digest
    d2 = load_run_config(p2).digest
    assert d1 == d1_again
    assert d1 != d2
    assert len(d1) == 16


def test_seed_override_changes_digest_and_seed(tmp_path):
    p = _write(tmp_path, MINIMAL)
    base = load_run_config(p)
    over = load_run_config(p, seed_override=99)
    assert over.master_seed == 99
    assert over.pipelines[0].master_seed == 99
    assert over.digest != base.digest


def test_unknown_keys_rejected_with_dotted_path(tmp_path):
    bad = dict(MINIMAL)
    bad["device"] = {"adc_bits": 12, "adc_speed": 5}
    with pytest.raises(ValidationError) as err:
        load_run_config(_write(tmp_path, bad))
    assert "device.adc_speed" in str(err.value)

    bad2 = dict(MINIMAL, extra=1)
    with pytest.raises(ValidationError) as err2:
        load_run_config(_write(tmp_path, bad2, "b.json"))
    assert "extra" in str(err2.value)


def test_type_errors_name_the_path(tmp_path):
    bad = dict(MINIMAL, master_seed="seven")
    with pytest.raises(ValidationError) as err:
        load_run_config(_write(tmp_path, bad))
    assert "master_seed" in str(err.value)

    bad2 = dict(MINIMAL)
    bad2["tasks"] = [{"preset": "binary-narrow", "hidden": [4, "4"]}]
    with pytest.raises(ValidationError) as err2:
        load_run_config(_write(tmp_path, bad2, "b.json"))
    assert "hidden" in str(err2.value)


def test_required_keys_and_preset_membership(tmp_path):
    with pytest.raises(ValidationError):
        validate_config_dict({"scale": "desk", "master_seed": 1})  # no tasks
    with pytest.raises(ValidationError):
        validate_config_dict(dict(MINIMAL, scale="bench"))
    bad = dict(MINIMAL)
    bad["tasks"] = [{"preset": "quaternary", "hidden": [4]}]
    with pytest.raises(ValidationError) as err:
        validate_config_dict(bad)
    assert "quaternary" in str(err.value)
    with pytest.raises(ValidationError):
        validate_config_dict(dict(MINIMAL, tasks=[{"preset": "ternary"}]))
    with pytest.raises(ValidationError):
        validate_config_dict(
            dict(MINIMAL, experiment={"modes": ["balanced", "upside-down"]})
        )


def test_file_level_errors(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_run_config(tmp_path / "nope.json")
    assert "not found" in str(err.value)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ValidationError) as err2:
        load_run_config(broken)
    assert "JSON" in str(err2.value)


def test_task_overrides_reach_the_spec(tmp_path):
    cfg_dict = dict(MINIMAL)
    cfg_dict["tasks"] = [
        {"preset": "ternary", "hidden": [6, 4], "dsmall_size": 30, "separation": 2.0}
    ]
    cfg = load_run_config(_write(tmp_path, cfg_dict))
    spec = cfg.pipelines[0].task
    assert spec.dsmall_size == 30
    assert spec.separation == 2.0
    assert spec.n_classes == 3
    assert cfg.pipelines[0].topology == (13, 6, 4, 3)


def test_semantic_errors_surface_as_validation_errors(tmp_path):
    bad = dict(MINIMAL)
    bad["device"] = {"adc_bits": 20}
    with pytest.raises(ValidationError) as err:
        load_run_config(_write(tmp_path, bad))
    assert "config: device: " in str(err.value) and "adc_bits" in str(err.value)
    bad2 = dict(MINIMAL)
    bad2["phase1"] = {"theta": -0.5}
    with pytest.raises(ValidationError) as err:
        load_run_config(_write(tmp_path, bad2, "b.json"))
    assert "config: phase1: theta must be" in str(err.value)
    bad3 = dict(MINIMAL, tasks=[MINIMAL["tasks"][0], {"preset": "ternary", "hidden": [4, 0]}])
    with pytest.raises(ValidationError) as err:
        load_run_config(_write(tmp_path, bad3, "c.json"))
    assert "config: tasks.1: topology layer sizes must be positive" in str(err.value)
    # one case per schedule rule: nn.TrainConfig's, then FinetuneConfig's and EdnnTrainConfig's
    for section, key, value in (
        ({"phase1": {"surrogate": {"epochs": 0}}}, "epochs", 0),
        ({"phase1": {"ednn": {"epochs": -3}}}, "epochs", -3),
        ({"phase1": {"surrogate": {"batch_size": 0}}}, "batch_size", 0),
        ({"phase1": {"ednn": {"lr": 0.0}}}, "lr", 0.0),
        ({"experiment": {"target": {"dropout": 1.0}}}, "dropout", 1.0),
        ({"finetune": {"early_stop_patience": 0}}, "early_stop_patience", 0),
        ({"finetune": {"lr_halve_after": 0}}, "lr_halve_after", 0),
        ({"finetune": {"epochs_max": -2}}, "epochs_max", -2),
        ({"finetune": {"val_frac": 1.0}}, "val_frac", 1.0),
        ({"phase1": {"ednn": {"tau": -0.1}}}, "tau", -0.1),
    ):
        with pytest.raises(ValidationError) as err:
            load_run_config(_write(tmp_path, dict(MINIMAL, **section), "rule.json"))
        path, node = [], section
        while key not in node:
            (name, node), = node.items()
            path.append(name)
        message = f"config: {'.'.join(path)}: {key} must be"
        assert message in str(err.value) and f"got {value!r}" in str(err.value)
    ok = dict(MINIMAL, finetune={"epochs_max": 0})  # 0 still means "no fine-tune"
    assert load_run_config(_write(tmp_path, ok, "ok.json")).pipelines[0].finetune.epochs_max == 0


# Each role's settings when a config leaves them out, written out by hand so a
# moved default shows here.
SURROGATE_FALLBACK = {"epochs": 150, "batch_size": 16, "lr": 0.003, "dropout": 0.3}
TARGET_FALLBACK = {"epochs": 60, "batch_size": 64, "lr": 0.003, "dropout": 0.3}


def test_role_train_configs_keep_their_defaults(tmp_path):
    partial = dict(MINIMAL, phase1={"surrogate": {"epochs": 5}}, experiment={"target": {}})
    bare = dict(MINIMAL, phase1={"chunks": 1}, experiment={"seeds": 2})
    paths = [
        shipped_config_path("desk"),
        shipped_config_path("paper"),
        _write(tmp_path, MINIMAL, "minimal.json"),
        _write(tmp_path, bare, "bare.json"),
        _write(tmp_path, partial, "partial.json"),
    ]
    for path in paths:
        raw = json.loads(path.read_text())
        sur = {**SURROGATE_FALLBACK, **raw.get("phase1", {}).get("surrogate", {})}
        tgt = {**TARGET_FALLBACK, **raw.get("experiment", {}).get("target", {})}
        cfg = load_run_config(path)
        for pipe in cfg.pipelines:
            assert pipe.surrogate == TrainConfig(**sur), path.name
        assert cfg.experiment.target == TrainConfig(**tgt), path.name
