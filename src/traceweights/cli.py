"""Command-line entry point.

One subcommand per phase plus the end-to-end experiment.  Everything
heavier than argument parsing imports lazily so --threads can pin the
BLAS pool before numpy loads.

Exit codes: 0 success, 1 usage, 2 validation or data error, 3 numerical
failure.  Logs go to stderr as key=value lines; stdout carries only
machine-readable results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for data errors
    def error(self, message):
        raise _UsageError(message)


def _log(stage: str, line: str) -> None:
    sys.stderr.write(f"stage={stage} {line}\n")
    sys.stderr.flush()


def _pin_threads(n: int) -> None:
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)


def _load_config(args):
    """The run config, and the pipeline of ``--task`` (the first when not given)."""
    from .config import ValidationError, load_run_config, shipped_config_path

    path = args.config if args.config else shipped_config_path(args.scale)
    run_cfg = load_run_config(path, seed_override=args.seed)
    name = getattr(args, "task", None)
    for p in run_cfg.pipelines:
        if name in (None, p.task.name):
            return run_cfg, p
    have = [p.task.name for p in run_cfg.pipelines]
    raise ValidationError(f"no task named {name!r} in config; tasks: {have}")


def _write_config_copy(out: Path, run_cfg) -> None:
    from .artifacts import write_json

    write_json(out / "config.json", {**run_cfg.raw, "config_digest": run_cfg.digest})


def _cmd_validate_config(args, run_cfg, pipe) -> int:
    _log("validate-config", f"ok=true digest={run_cfg.digest} scale={run_cfg.scale}")
    print(json.dumps({"valid": True, "digest": run_cfg.digest}))
    return 0


def _cmd_gen_data(args, run_cfg, pipe) -> int:
    from .datasets import gen_synthetic, load_csv, write_dataset
    from .config import ValidationError
    from .seeding import derive_seed

    out = Path(args.out)
    if args.csv is not None:
        if args.label_column is None:
            raise ValidationError("--csv needs --label-column")
        ds = load_csv(args.csv, args.label_column)
    else:
        n = args.n if args.n is not None else pipe.pool_size
        ds = gen_synthetic(
            pipe.task, n, seed=derive_seed(run_cfg.master_seed, "gen-data", pipe.task.name)
        )
    write_dataset(out, ds, meta={"config_digest": run_cfg.digest})
    _log("gen-data", f"name={ds.name} n={ds.n} d={ds.d} classes={ds.n_classes} out={out}")
    return 0


def _cmd_prepare_pairs(args, run_cfg, pipe) -> int:
    from .config import ValidationError
    from .pipeline import attacker_data, prepare_pairs, write_fixed_input, write_pairs

    out = Path(args.out)
    k = args.iteration
    if not 1 <= k <= pipe.chunks:
        raise ValidationError(f"--iteration {k} is outside 1..{pipe.chunks} (the config's chunks)")
    chunks, fixed = attacker_data(pipe)
    pairs = prepare_pairs(
        chunks[:k], pipe, fixed, iteration=k, log=lambda s: _log("prepare-pairs", s)
    )
    write_fixed_input(out, fixed, run_cfg.digest)
    write_pairs(out / "pairs", pairs, run_cfg.digest)
    _log("prepare-pairs", f"task={pipe.task.name} pairs={pairs.n} out={out}")
    return 0


def _cmd_train_ednn(args, run_cfg, pipe) -> int:
    from .pipeline import persist_phase1, run_phase1

    out = Path(args.out)
    result = run_phase1(pipe, log=lambda s: _log("train-ednn", s))
    _write_config_copy(out, run_cfg)
    persist_phase1(out, result, run_cfg.digest)
    _log(
        "train-ednn",
        f"task={pipe.task.name} reached_theta={result.reached_theta} "
        f"val_accuracy={result.final_val_accuracy:.4f} "
        f"test_accuracy={result.test_accuracy:.4f} out={out}",
    )
    return 0


def _cmd_extract(args, run_cfg, pipe) -> int:
    from .artifacts import read_json, write_json
    from .config import ValidationError
    from .device import read_trace_container
    from .mlp import model_from_dict
    from .pipeline import Translator, run_phase2, translate_trace

    out = Path(args.out)
    translator, _ = Translator.read(args.run, run_cfg.digest)
    if (args.model is None) == (args.trace is None):
        raise ValidationError("need exactly one of --model or --trace")
    if args.model is not None:
        target = model_from_dict(read_json(args.model))
        matrix = run_phase2(target, translator, pipe)
    else:
        traces, _ = read_trace_container(args.trace)
        if not 0 <= args.trace_index < len(traces):
            raise ValidationError(
                f"--trace-index {args.trace_index} is outside {args.trace}'s {len(traces)} rows"
            )
        matrix = translate_trace(traces[args.trace_index], translator, pipe.topology)
    stamps = {"config_digest": run_cfg.digest, "fixed_digest": translator.fixed.digest}
    write_json(out / "extracted_matrix.json", {**matrix.to_json_dict(), **stamps})
    _log("extract", f"rows={matrix.rows} cols={matrix.cols} out={out}")
    return 0


def _cmd_finetune(args, run_cfg, pipe) -> int:
    from dataclasses import replace

    from .artifacts import read_json, write_json, write_text
    from .codec import WeightsMatrix
    from .datasets import read_dataset
    from .mlp import model_to_dict
    from .pipeline import run_phase3
    from .seeding import derive_seed

    out = Path(args.out)
    matrix = WeightsMatrix.from_json_dict(read_json(args.matrix))
    d_small = read_dataset(args.data)
    if args.epochs_max is not None:
        pipe = replace(pipe, finetune=replace(pipe.finetune, epochs_max=args.epochs_max))
    model, hist = run_phase3(
        matrix, d_small, pipe, seed=derive_seed(pipe.master_seed, "cli", "finetune")
    )
    write_json(out / "final_model.json", {**model_to_dict(model), "config_digest": run_cfg.digest})
    lines = ["epoch,split,accuracy"]
    for split, accs in (("train", hist.train_acc), ("val", hist.val_acc)):
        lines += [f"{e},{split},{acc!r}" for e, acc in enumerate(accs, start=1)]
    write_text(out / "curves.csv", "\n".join(lines) + "\n")
    last_val = hist.val_acc[-1] if hist.val_acc else None
    _log(
        "finetune",
        f"epochs_run={len(hist.train_acc)} best_epoch={hist.best_epoch} "
        f"val_accuracy={last_val} out={out}",
    )
    return 0


def _cmd_evaluate(args, run_cfg, pipe) -> int:
    from .artifacts import read_json, write_json
    from .datasets import read_dataset
    from .experiment import evaluate_model
    from .mlp import model_from_dict

    model = model_from_dict(read_json(args.model))
    ds = read_dataset(args.data)
    metrics = evaluate_model(model, ds)
    metrics["config_digest"] = run_cfg.digest
    if args.out is not None:
        write_json(Path(args.out) / "metrics.json", metrics)
    _log("evaluate", f"accuracy={metrics['accuracy']!r} f1={metrics['f1']!r}")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _cmd_experiment(args, run_cfg, pipe) -> int:
    from .experiment import run_experiment

    out = Path(args.out)
    _write_config_copy(out, run_cfg)
    run_experiment(
        run_cfg.pipelines,
        run_cfg.experiment,
        out_dir=out,
        config_digest=run_cfg.digest,
        log=lambda s: _log("experiment", s),
    )
    _log("experiment", f"report={out / 'report.json'}")
    return 0


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="run config JSON; defaults to the shipped --scale config")
    common.add_argument(
        "--scale",
        choices=("desk", "paper"),
        default="desk",
        help="which shipped config to use when --config is absent",
    )
    common.add_argument("--seed", type=int, help="override the config master seed")
    common.add_argument(
        "--threads", type=int, default=1, help="BLAS thread cap (default 1, deterministic)"
    )

    parser = _Parser(prog="traceweights", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def add(name, func, help_text, task=True, out_required=True, out_flag=True):
        p = sub.add_parser(name, parents=[common], help=help_text, description=help_text)
        if out_flag:
            p.add_argument("--out", required=out_required, help="output directory")
        if task:
            p.add_argument("--task", help="task name from the config (default: first)")
        p.set_defaults(func=func)
        return p

    p = add("gen-data", _cmd_gen_data, "write a dataset container (synthetic task or CSV)")
    p.add_argument("--n", type=int, help="sample count (default: task pool size)")
    p.add_argument("--csv", help="convert a CSV file instead of generating")
    p.add_argument("--label-column", help="label column name for --csv")

    p = add("prepare-pairs", _cmd_prepare_pairs, "train surrogates and capture trace/matrix pairs")
    p.add_argument(
        "--iteration", type=int, default=1, help="outer iteration: how many chunks to use"
    )

    add("train-ednn", _cmd_train_ednn, "run phase 1 and persist the run directory")

    p = add("extract", _cmd_extract, "translate a victim model or captured trace into a matrix")
    p.add_argument("--run", required=True, help="phase-1 run directory")
    p.add_argument("--model", help="victim model JSON to trace and translate")
    p.add_argument("--trace", help="trace container to translate instead of --model")
    p.add_argument("--trace-index", type=int, default=0, help="row of --trace to use")

    p = add("finetune", _cmd_finetune, "decode a matrix and fine-tune on a small dataset")
    p.add_argument("--matrix", required=True, help="extracted_matrix.json path")
    p.add_argument("--data", required=True, help="small dataset container directory")
    p.add_argument("--epochs-max", type=int, help="override fine-tune epoch budget (0 = none)")

    p = add("evaluate", _cmd_evaluate, "accuracy and F1 of a model on a dataset", task=False,
            out_required=False)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="dataset container directory")

    add("experiment", _cmd_experiment, "full multi-seed comparison; writes report.json",
        task=False)

    add("validate-config", _cmd_validate_config, "check a config and print its digest",
        task=False, out_flag=False)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        _log("usage", f"error={e}")
        return 1
    _pin_threads(max(args.threads, 1))

    from .errors import NumericalError

    try:
        return args.func(args, *_load_config(args))
    except (ValueError, OSError, KeyError, IndexError) as e:
        # ValidationError is a ValueError; a NumericalError is the math's failure, not the input's
        _log(args.command, f"error={type(e).__name__} detail={e}")
        return 3 if isinstance(e, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
