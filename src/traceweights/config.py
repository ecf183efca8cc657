"""Run configuration: strict JSON schema, defaults, and assembly.

A run config names the scale, master seed, device parameters, tasks (a
preset plus hidden-layer widths and optional mixture overrides), and the
phase-1 / fine-tune / experiment settings.  Validation is strict: keys
outside the schema are rejected so typos cannot silently fall back to
defaults.  Two canonical configs ship with the package: desk.json and
paper.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .datasets import PRESETS, TaskSpec
from .device import DeviceConfig
from .ednn import EdnnTrainConfig
from .experiment import TARGET_DEFAULTS, ExperimentConfig
from .mlp import head_width, validate_topology
from .pipeline import SURROGATE_DEFAULTS, FinetuneConfig, PipelineConfig
from .seeding import digest_of

__all__ = [
    "ValidationError",
    "RunConfig",
    "load_run_config",
    "validate_config_dict",
    "shipped_config_path",
]


class ValidationError(ValueError):
    pass


_INT = ("int",)
_NUM = ("int", "float")
_SCHEMA = {
    "scale": ("str",),
    "master_seed": _INT,
    "device": {
        "adc_bits": _INT,
        "adc_lo": _NUM,
        "adc_hi": _NUM,
        "noise_sigma": _NUM,
        "static_power": _NUM,
        "dynamic_scale": _NUM,
        "samples_per_mac": _INT,
        "fixed_point_bits": _INT,
        "fixed_point_frac_bits": _INT,
        "rng_seed": _INT,
    },
    "tasks": [
        {
            "preset": ("str",),
            "hidden": ["int"],
            "clusters_per_class": _INT,
            "separation": _NUM,
            "cluster_spread": _NUM,
            "dsmall_size": _INT,
        }
    ],
    "phase1": {
        "chunks": _INT,
        "reps": _INT,
        "pool_size": _INT,
        "pca_k": _INT,
        "theta": _NUM,
        "splits": ["float"],
        "surrogate": {
            "epochs": _INT,
            "batch_size": _INT,
            "lr": _NUM,
            "dropout": _NUM,
        },
        "ednn": {"epochs": _INT, "batch_size": _INT, "lr": _NUM, "tau": _NUM},
    },
    "finetune": {
        "epochs_max": _INT,
        "batch_size": _INT,
        "lr": _NUM,
        "dropout": _NUM,
        "early_stop_patience": _INT,
        "lr_halve_after": _INT,
        "val_frac": _NUM,
        "restore_best": ("bool",),
    },
    "experiment": {
        "seeds": _INT,
        "modes": ["str"],
        "eval_pool_size": _INT,
        "test_frac": _NUM,
        "target": {"epochs": _INT, "batch_size": _INT, "lr": _NUM, "dropout": _NUM},
    },
}

_REQUIRED = ("scale", "master_seed", "tasks")


def _type_ok(value, kinds) -> bool:
    checks = {
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "str": lambda v: isinstance(v, str),
        "bool": lambda v: isinstance(v, bool),
    }
    return any(checks[k](value) for k in kinds)


def _validate(node, schema, path: str) -> None:
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ValidationError(f"config: {path or 'top level'} must be an object")
        for key, sub in node.items():
            if key not in schema:
                raise ValidationError(f"config: unknown key {path + key!r}")
            _validate(sub, schema[key], f"{path}{key}.")
    elif isinstance(schema, list):
        if not isinstance(node, list):
            raise ValidationError(f"config: {path.rstrip('.')} must be an array")
        elem = schema[0]
        for i, item in enumerate(node):
            if isinstance(elem, (dict, list)):
                _validate(item, elem, f"{path}{i}.")
            elif not _type_ok(item, (elem,)):
                raise ValidationError(
                    f"config: {path.rstrip('.')}[{i}] must be {elem}, got {item!r}"
                )
    else:
        if not _type_ok(node, schema):
            raise ValidationError(
                f"config: {path.rstrip('.')} must be {'/'.join(schema)}, got {node!r}"
            )


def validate_config_dict(raw: dict) -> None:
    """Schema check with unknown-key rejection; raises ValidationError."""
    _validate(raw, _SCHEMA, "")
    for key in _REQUIRED:
        if key not in raw:
            raise ValidationError(f"config: missing required key {key!r}")
    if raw["scale"] not in ("desk", "paper"):
        raise ValidationError(f"config: scale must be desk or paper, got {raw['scale']!r}")
    if not raw["tasks"]:
        raise ValidationError("config: tasks must not be empty")
    for i, t in enumerate(raw["tasks"]):
        if "preset" not in t:
            raise ValidationError(f"config: tasks.{i} missing 'preset'")
        if t["preset"] not in PRESETS:
            raise ValidationError(
                f"config: tasks.{i}.preset {t['preset']!r} not one of {sorted(PRESETS)}"
            )
        if "hidden" not in t or not t["hidden"]:
            raise ValidationError(f"config: tasks.{i} missing non-empty 'hidden'")
    for mode in raw.get("experiment", {}).get("modes", []):
        if mode not in ("balanced", "imbalanced2x"):
            raise ValidationError(f"config: unknown sampling mode {mode!r}")


@dataclass
class RunConfig:
    raw: dict
    scale: str
    master_seed: int
    device: DeviceConfig
    pipelines: list[PipelineConfig]
    experiment: ExperimentConfig

    @property
    def digest(self) -> str:
        return digest_of(self.raw)


def _task_spec(entry: dict) -> TaskSpec:
    spec = PRESETS[entry["preset"]]
    overrides = {
        k: entry[k]
        for k in ("clusters_per_class", "separation", "cluster_spread", "dsmall_size")
        if k in entry
    }
    return replace(spec, **overrides) if overrides else spec


def _in(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a rule it breaks reported under ``section``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"config: {section}: {e}") from None


def _build(raw: dict) -> RunConfig:
    device = _in("device", DeviceConfig, **raw.get("device", {}))
    p1 = dict(raw.get("phase1", {}))
    sur = _in("phase1.surrogate", replace, SURROGATE_DEFAULTS, **p1.pop("surrogate", {}))
    ednn = _in("phase1.ednn", EdnnTrainConfig, **p1.pop("ednn", {}))
    ft = _in("finetune", FinetuneConfig, **raw.get("finetune", {}))
    exp_raw = dict(raw.get("experiment", {}))
    target = _in("experiment.target", replace, TARGET_DEFAULTS, **exp_raw.pop("target", {}))
    if "modes" in exp_raw:
        exp_raw["modes"] = tuple(exp_raw["modes"])
    experiment = _in("experiment", ExperimentConfig, target=target, **exp_raw)

    if "splits" in p1:
        p1["splits"] = tuple(p1["splits"])
    pipelines = []
    for i, entry in enumerate(raw["tasks"]):
        spec = _in(f"tasks.{i}", _task_spec, entry)
        topology = _in(f"tasks.{i}", validate_topology,
                       (spec.n_features, *entry["hidden"], head_width(spec.n_classes)))
        pipelines.append(
            _in(
                "phase1",
                PipelineConfig,
                task=spec,
                topology=topology,
                device=device,
                master_seed=int(raw["master_seed"]),
                scale=raw["scale"],
                surrogate=sur,
                ednn=ednn,
                finetune=ft,
                **p1,
            )
        )
    return RunConfig(
        raw=raw,
        scale=raw["scale"],
        master_seed=int(raw["master_seed"]),
        device=device,
        pipelines=pipelines,
        experiment=experiment,
    )


def shipped_config_path(scale: str) -> Path:
    """Filesystem path of a packaged canonical config (desk or paper)."""
    if scale not in ("desk", "paper"):
        raise ValidationError(f"no shipped config for scale {scale!r}")
    return Path(str(resources.files("traceweights").joinpath(f"configs/{scale}.json")))


def load_run_config(path, seed_override=None) -> RunConfig:
    """Read, validate, and assemble a run config from a JSON file.

    A run directory's config.json carries the ``config_digest`` stamp it
    was written with; the stamp must match the digest of the rest.
    """
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise ValidationError(f"config: file not found: {p}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"config: {p} is not valid JSON: {e}") from None
    stamp = raw.pop("config_digest", None) if isinstance(raw, dict) else None
    validate_config_dict(raw)
    if stamp is not None and stamp != digest_of(raw):
        raise ValidationError(
            f"config: {p} is stamped config_digest {stamp!r}, "
            f"but its content has digest {digest_of(raw)!r}"
        )
    if seed_override is not None:
        raw = dict(raw)
        raw["master_seed"] = int(seed_override)
    return _build(raw)
