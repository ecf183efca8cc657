"""Span recorder that wraps the package's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.installed()`` swaps each
public function for a recording wrapper at the module attribute its
caller looks it up through (``pipeline.train_mlp`` and
``experiment.train_mlp`` are two patch points of one function), patches
``Adam.step`` on its class, and instruments every EDNN built while it is
installed layer by layer.  Every span keeps a name, start, end and parent
id in memory; ``per_layer()`` turns them into self times, counts and
computed FLOP/byte rates after the run.

FLOP and byte counts are computed from array shapes, not measured:
a multiply-add counts as 2 FLOPs, an Adam step moves 7 float64 words
per parameter (reads p, g, m, v; writes p, m, v).
"""

from __future__ import annotations

from contextlib import contextmanager
from statistics import median
from time import perf_counter
from typing import NamedTuple

EDNN_LAYERS = ("dense_in", "conv1", "conv2", "conv3", "deconv1", "deconv2", "dense_out")
ADAM_CALLERS = ("ednn", "surrogate", "finetune", "target")

# train_mlp is classed by the nearest of these ancestors
_MLP_ROLE = {
    "pipeline.prepare_pairs": "surrogate",
    "pipeline.run_phase3": "finetune",
    "experiment.run_experiment": "target",
}

# (module, attribute) -> span name; the module is where the caller looks it up
_FUNCTIONS = {
    "pipeline": {
        "run_phase1": "pipeline.run_phase1",
        "prepare_pairs": "pipeline.prepare_pairs",
        "train_mlp": "mlp.train_mlp",
        "simulate_trace": "device.simulate_trace",
        "coefficients_to_matrix": "codec.coefficients_to_matrix",
        "matrix_to_coefficients": "codec.matrix_to_coefficients",
        "pca_fit": "reduction.pca_fit",
        "pca_transform": "reduction.pca_transform",
        "build_ednn": "ednn.build_ednn",
        "train_ednn": "ednn.train_ednn",
        "predict_weights": "ednn.predict_weights",
        "gen_synthetic": "datasets.gen_synthetic",
    },
    "experiment": {
        "run_experiment": "experiment.run_experiment",
        "run_phase1": "pipeline.run_phase1",
        "run_phase2": "pipeline.run_phase2",
        "run_phase3": "pipeline.run_phase3",
        "persist_phase1": "experiment.persist_phase1",
        "train_mlp": "mlp.train_mlp",
        "evaluate_model": "experiment.evaluate_model",
        "matrix_to_coefficients": "codec.matrix_to_coefficients",
        "gen_synthetic": "datasets.gen_synthetic",
        "sample_dsmall": "datasets.sample_dsmall",
        "write_report": "experiment.write_report",
    },
    "ednn": {
        "build_ednn": "ednn.build_ednn",
        "train_ednn": "ednn.train_ednn",
    },
    "reduction": {
        "pca_fit": "reduction.pca_fit",
        "pca_transform": "reduction.pca_transform",
    },
}


def _train_mlp_info(args, kwargs, hist):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return (len(x) * hist.stopped_epoch, hist.best_epoch, hist.stopped_epoch)


_INFO = {
    "mlp.train_mlp": _train_mlp_info,
    "pipeline.run_phase1": lambda a, kw, out: out.pairs.n,
    "device.simulate_trace": lambda a, kw, out: int(out.samples.size),
    "ednn.train_ednn": lambda a, kw, out: out.epochs_run,
}


def _dense_flops(layer, x_shape):
    n = x_shape[0]
    fan_in, fan_out = layer.w.shape
    return 2 * n * fan_in * fan_out + n * fan_out


def _conv_flops(layer, x_shape):
    n, c_in, length = x_shape
    c_out, _, k = layer.w.shape
    l_out = (length - k) // layer.stride + 1
    return 2 * n * c_out * c_in * k * l_out + n * c_out * l_out


def _deconv_flops(layer, x_shape):
    n, c_in, length = x_shape
    _, c_out, k = layer.w.shape
    l_out = (length - 1) * layer.stride + k
    return 2 * n * c_in * c_out * k * length + n * c_out * l_out


_FLOPS = {"Dense": _dense_flops, "Conv1D": _conv_flops, "ConvTranspose1D": _deconv_flops}
_ELEMENTWISE = ("ReLU", "Dropout", "Flatten", "ReshapeToSignal", "ReshapeToMatrix")


class Tracer:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> imported module
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.info: list = []
        self._stack = [-1]
        self.active = False

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.info.append(None)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.starts[sid] = t0
                self.ends[sid] = t1
            if info is not None:
                self.info[sid] = info(args, kwargs, out)
            return out

        return traced

    def _instrument_ednn(self, model):
        """Wrap one EDNN's forward and each layer's forward/backward in place."""
        fwd = model.forward
        model.forward = self.wrap(
            "ednn.forward", fwd, info=lambda a, kw, out: bool(kw.get("train", False))
        )
        parametric = iter(EDNN_LAYERS)
        for layer in model.layers:
            kind = type(layer).__name__
            if kind in _FLOPS:
                label = next(parametric)
                flops = _FLOPS[kind]
                layer.forward = self.wrap(
                    f"nn.{label}.fwd", layer.forward,
                    info=lambda a, kw, out, ly=layer, f=flops: f(ly, a[0].shape),
                )
                # backward does the weight-gradient and input-gradient products
                layer.backward = self.wrap(
                    f"nn.{label}.bwd", layer.backward,
                    info=lambda a, kw, out, ly=layer, f=flops: 2 * f(ly, out.shape),
                )
            elif kind in _ELEMENTWISE:
                layer.forward = self.wrap("nn.elementwise", layer.forward)
                layer.backward = self.wrap("nn.elementwise", layer.backward)
        return model

    @contextmanager
    def installed(self):
        """Patch every traced attribute, record while inside, restore on exit."""
        saved = []
        for mod_name, attrs in _FUNCTIONS.items():
            mod = self.modules[mod_name]
            for attr, span in attrs.items():
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                wrapped = self.wrap(span, original, _INFO.get(span))
                if span == "ednn.build_ednn":
                    wrapped = self._built(wrapped)
                setattr(mod, attr, wrapped)
        adam = self.modules["nn"].Adam
        saved.append((adam, "step", adam.step))
        adam.step = self.wrap(
            "nn.adam.step", adam.step,
            info=lambda a, kw, out: 7 * sum(p.nbytes for p in a[1]),
        )
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _built(self, build):
        def build_and_instrument(*args, **kwargs):
            return self._instrument_ednn(build(*args, **kwargs))

        return build_and_instrument

    # ---- aggregation -------------------------------------------------

    def _ancestor(self, sid, names):
        p = self.parents[sid]
        while p >= 0:
            if self.names[p] in names:
                return self.names[p]
            p = self.parents[p]
        return None

    def per_layer(self, traced_walls: list, untraced_walls: list, extra: dict) -> dict:
        """Per-round layer metrics over the traced rounds timed in ``traced_walls``.

        ``extra`` holds totals measured outside any span (bytes written).
        """
        rounds = len(traced_walls)
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        self_s = [dur[i] - child[i] for i in range(n)]

        acc: dict = {}

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        for i, name in enumerate(self.names):
            info = self.info[i]
            if name == "mlp.train_mlp":
                role = _MLP_ROLE[self._ancestor(i, _MLP_ROLE)]
                samples, best, stopped = info
                add(f"mlp.{role}.train_s", self_s[i])
                add(f"mlp.{role}.calls", 1)
                add(f"mlp.{role}.incl_s", dur[i])
                add(f"mlp.{role}.samples", samples)
                add(f"mlp.{role}.best_epochs", best)
                add(f"mlp.{role}.epochs_run", stopped)
            elif name == "nn.adam.step":
                owner = self._ancestor(i, ("ednn.train_ednn", "mlp.train_mlp"))
                if owner == "ednn.train_ednn":
                    caller = "ednn"
                else:
                    caller = _MLP_ROLE[self._ancestor(i, _MLP_ROLE)]
                add(f"nn.adam.{caller}.step_s", self_s[i])
                add(f"nn.adam.{caller}.steps", 1)
                add(f"nn.adam.{caller}.bytes", info)
            elif name.startswith("nn.") and name != "nn.elementwise":
                add(f"{name}_s", self_s[i])
                add(name.rsplit(".", 1)[0] + ".flops", info)
            elif name == "ednn.forward":
                if not info and self._ancestor(i, ("ednn.train_ednn",)):
                    add("ednn.val_forward_s", dur[i])
            elif name == "ednn.predict_weights":
                add("ednn.predict_weights_s", dur[i])
            else:
                add(f"{name}_s", self_s[i])
                if name == "pipeline.run_phase1":
                    add("pipeline.pairs_kept", info)
                elif name == "device.simulate_trace":
                    add("device.samples", info)
                elif name == "ednn.train_ednn":
                    add("ednn.epochs", info)
        for key, value in extra.items():
            add(key, value)

        out = {m.name: acc.get(m.name, 0.0) / rounds for m in PER_LAYER}
        out["mlp.surrogate.samples_per_s"] = _rate(
            acc.get("mlp.surrogate.samples", 0), acc.get("mlp.surrogate.incl_s", 0))
        out["mlp.finetune.useful_epoch_frac"] = _rate(
            acc.get("mlp.finetune.best_epochs", 0), acc.get("mlp.finetune.epochs_run", 0))
        for label in EDNN_LAYERS:
            busy = acc.get(f"nn.{label}.fwd_s", 0.0) + acc.get(f"nn.{label}.bwd_s", 0.0)
            out[f"nn.{label}.gflops_per_s"] = _rate(acc.get(f"nn.{label}.flops", 0), busy) / 1e9
        for caller in ADAM_CALLERS:
            out[f"nn.adam.{caller}.gbytes_per_s"] = _rate(
                acc.get(f"nn.adam.{caller}.bytes", 0), acc.get(f"nn.adam.{caller}.step_s", 0)
            ) / 1e9
        out["ednn.batches"] = out["nn.adam.ednn.steps"]
        out["pipeline.surrogates_trained"] = out["mlp.surrogate.calls"]
        out["pipeline.pair_reuse_ratio"] = _rate(
            out["pipeline.pairs_kept"], out["pipeline.surrogates_trained"])
        roots = sum(dur[i] for i in range(n) if self.parents[i] < 0)
        out["trace.coverage_frac"] = roots / sum(traced_walls)
        out["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
        out["trace.spans"] = n / rounds
        return out


def _rate(num, den):
    return num / den if den > 0 else 0.0


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this layer should move


def _layer_metrics():
    m = [
        Metric("mlp.surrogate.train_s", "s", "lower", "ops_per_s on transfer"),
        Metric("mlp.surrogate.calls", "count", "lower", "ops_per_s on transfer"),
        Metric("mlp.surrogate.samples_per_s", "1/s", "higher", "ops_per_s on transfer"),
        Metric("mlp.target.train_s", "s", "lower", "ops_per_s on transfer"),
        Metric("mlp.finetune.train_s", "s", "lower", "ops_per_s on transfer"),
        Metric("mlp.finetune.epochs_run", "count", "lower", "ops_per_s on transfer"),
        Metric("mlp.finetune.useful_epoch_frac", "frac", "higher", "ops_per_s on transfer"),
    ]
    for label in EDNN_LAYERS:
        moves = "ops_per_s on translator; little change on transfer"
        m += [
            Metric(f"nn.{label}.fwd_s", "s", "lower", moves),
            Metric(f"nn.{label}.bwd_s", "s", "lower", moves),
            Metric(f"nn.{label}.flops", "flop", "lower", moves),
            Metric(f"nn.{label}.gflops_per_s", "GFLOP/s", "higher", moves),
        ]
    m.append(Metric("nn.elementwise_s", "s", "lower", "ops_per_s on translator"))
    adam_moves = {
        "ednn": "ops_per_s on translator",
        "surrogate": "ops_per_s on transfer",
        "finetune": "ops_per_s on transfer",
        "target": "ops_per_s on transfer",
    }
    for caller in ADAM_CALLERS:
        moves = adam_moves[caller] + "; check all three workloads"
        m += [
            Metric(f"nn.adam.{caller}.step_s", "s", "lower", moves),
            Metric(f"nn.adam.{caller}.steps", "count", "lower", moves),
            Metric(f"nn.adam.{caller}.bytes", "B", "lower", moves),
            Metric(f"nn.adam.{caller}.gbytes_per_s", "GB/s", "higher", moves),
        ]
    m += [
        Metric("ednn.build_ednn_s", "s", "lower", "round_s on translator"),
        Metric("ednn.train_ednn_s", "s", "lower", "ops_per_s on translator"),
        Metric("ednn.epochs", "count", "lower", "ops_per_s on translator"),
        Metric("ednn.batches", "count", "lower", "ops_per_s on translator"),
        Metric("ednn.val_forward_s", "s", "lower", "ops_per_s on translator"),
        Metric("ednn.predict_weights_s", "s", "lower", "ops_per_s on transfer (tiny share)"),
        Metric("pipeline.run_phase1_s", "s", "lower", "round_s on transfer"),
        Metric("pipeline.prepare_pairs_s", "s", "lower", "round_s on transfer"),
        Metric("pipeline.surrogates_trained", "count", "lower", "round_s on transfer"),
        Metric("pipeline.pairs_kept", "count", "higher", "ops_per_s on transfer"),
        Metric("pipeline.pair_reuse_ratio", "frac", "higher", "round_s on transfer"),
        Metric("pipeline.run_phase2_s", "s", "lower", "ops_per_s on transfer"),
        Metric("pipeline.run_phase3_s", "s", "lower", "ops_per_s on transfer"),
        Metric("device.simulate_trace_s", "s", "lower",
               "none on transfer (negative control, ~0.3 ms per trace)"),
        Metric("device.samples", "count", "lower", "none (negative control)"),
        Metric("codec.coefficients_to_matrix_s", "s", "lower", "transfer (small share)"),
        Metric("codec.matrix_to_coefficients_s", "s", "lower", "transfer (small share)"),
        Metric("reduction.pca_fit_s", "s", "lower", "translator and transfer (small share)"),
        Metric("reduction.pca_transform_s", "s", "lower",
               "translator and transfer (small share)"),
        Metric("experiment.run_experiment_s", "s", "lower", "round_s on transfer"),
        Metric("experiment.evaluate_model_s", "s", "lower", "round_s on transfer"),
        Metric("experiment.persist_phase1_s", "s", "lower", "round_s on transfer"),
        Metric("experiment.write_report_s", "s", "lower", "round_s on transfer"),
        Metric("experiment.bytes_written", "B", "lower", "round_s on transfer"),
        Metric("datasets.gen_synthetic_s", "s", "lower", "round_s on transfer"),
        Metric("datasets.sample_dsmall_s", "s", "lower", "round_s on transfer"),
        Metric("trace.coverage_frac", "frac", "higher",
               "share of traced wall time under top-level spans"),
        Metric("trace.overhead_frac", "frac", "lower", "median traced / untraced round - 1"),
        Metric("trace.spans", "count", "lower", "spans recorded per round"),
    ]
    return m


PER_LAYER = _layer_metrics()


# inclusive times overlap the nn spans beneath them, so shares leave them out
_INCLUSIVE = {"ednn.val_forward_s", "ednn.predict_weights_s"}


def _group(name: str) -> str:
    parts = name.split(".")
    if parts[0] == "mlp" or parts[:2] == ["nn", "adam"]:
        return ".".join(parts[:2])
    if parts[0] == "nn":
        return "nn.layers"
    return parts[0]


def self_time_shares(metrics: dict, round_wall_s: float) -> dict:
    """Share of a traced round's wall time spent in each layer's own code."""
    shares: dict = {}
    for m in PER_LAYER:
        if m.unit == "s" and m.name not in _INCLUSIVE:
            group = _group(m.name)
            shares[group] = shares.get(group, 0.0) + metrics[m.name] / round_wall_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
