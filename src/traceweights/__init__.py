"""Simulated power-trace capture, weights-matrix recovery, and transfer learning."""

from importlib import import_module

__version__ = "0.1.0"

# numpy must stay unimported until the CLI has pinned the BLAS thread pool
_EXPORTS = {
    "WeightsMatrix": "codec",
    "coefficients_to_matrix": "codec",
    "matrix_shape": "codec",
    "matrix_to_coefficients": "codec",
    "ValidationError": "config",
    "RunConfig": "config",
    "load_run_config": "config",
    "shipped_config_path": "config",
    "DeviceConfig": "device",
    "simulate_trace": "device",
    "total_macs": "device",
    "build_ednn": "ednn",
    "ednn_accuracy": "ednn",
    "predict_weights": "ednn",
    "train_ednn": "ednn",
    "NumericalError": "errors",
    "run_experiment": "experiment",
    "MlpModel": "mlp",
    "init_mlp": "mlp",
    "train_mlp": "mlp",
    "PipelineConfig": "pipeline",
    "run_phase1": "pipeline",
    "run_phase2": "pipeline",
    "run_phase3": "pipeline",
    "pca_fit": "reduction",
    "pca_transform": "reduction",
    "derive_seed": "seeding",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
