"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 60 --trace 0

Run from the repository root.  BLAS is pinned to one thread before NumPy
loads.  Each round is preceded by five set-ups (inputs from the seed,
plus a warm-up where the workload has one; the median of all is
reported), and rounds repeat until the next would overrun ``--seconds``
(at least one round).  Every round has the same inputs and its outputs
are checked.  ``round_s`` is the median round.  With ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics of the
traced rounds are reported instead of the end-to-end ones.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_ROUND = 5

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "frac",
}
# what ops_per_s and accuracy mean on each workload
WORKLOAD_NAMES = {
    "translator": ("ednn_epochs_per_s", "ednn_val_acc"),
    "transfer": ("comparisons_per_s", "trained_variant_acc"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("desk", "tiny"), default="desk",
                    help="tiny is for the smoke test only")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def timed_round(wl, tracer):
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        out = wl.run_round()
        return perf_counter() - t0, out


def measure(args, workdir):
    import numpy as np
    from tracer import PER_LAYER, Tracer, self_time_shares
    from workloads import WORKLOADS
    from traceweights import ednn, experiment, nn, pipeline, reduction

    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer({"pipeline": pipeline, "experiment": experiment, "ednn": ednn,
                         "reduction": reduction, "nn": nn})
    setup_times, untraced, traced, checks, traced_checks = [], [], [], [], []
    start = perf_counter()
    while True:
        # set-ups are spread over the run, so their median is not one moment's speed
        for _ in range(SETUPS_PER_ROUND):
            wl = cls(args.seed, args.size, workdir)
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
        use_tracer = tracer is not None and len(traced) < len(untraced)
        wall, out = timed_round(wl, tracer if use_tracer else None)
        check = wl.check(out)
        del out  # so one round's outputs do not raise the next round's peak RSS
        # every round has the same inputs, so it must give the same outputs
        if checks and check.digest != checks[0].digest:
            check.failed = check.ops
            check.notes.append("output digest differs from the first round's")
        checks.append(check)
        if use_tracer:
            traced.append(wall)
            traced_checks.append(check)
        else:
            untraced.append(wall)
        complete = tracer is None or traced
        next_s = median(untraced + traced) + SETUPS_PER_ROUND * median(setup_times)
        if complete and perf_counter() - start + next_s > args.seconds:
            break

    ops = sum(c.ops for c in checks)
    failed = sum(c.failed for c in checks)
    ops_name, acc_name = WORKLOAD_NAMES[args.workload]
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(untraced)} untraced + {len(traced)} traced rounds, "
          f"{ops // len(checks)} {wl.op}s per round, numpy {np.__version__}, BLAS threads 1")
    if tracer is None:
        metrics = {
            "setup_s": median(setup_times),
            "round_s": median(untraced),
            "ops_per_s": checks[0].ops / median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": median(c.accuracy for c in checks),
        }
        units = END_TO_END
        print(f"  ops_per_s is {ops_name}; accuracy is {acc_name}")
        print("  untraced rounds (s): " + " ".join(f"{w:.3f}" for w in untraced))
    else:
        extra = {}
        for c in traced_checks:
            for key, value in c.counts.items():
                extra[key] = extra.get(key, 0) + value
        metrics = tracer.per_layer(traced, untraced, extra)
        units = {m.name: m.unit for m in PER_LAYER}
        for group, share in self_time_shares(metrics, sum(traced) / len(traced)).items():
            print(f"  self-time share {group:<16} {share:8.4f}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:14.6g} {units[name]}")
    print(f"  failed_frac {failed / ops if ops else 1.0:.6g} ({failed}/{ops} {wl.op}s)")
    for name, value in checks[0].shown.items():
        print(f"  {name} {value:.6g}")
    print(f"  digest sha256 {checks[0].digest}")
    for note in sorted({n for c in checks for n in c.notes}):
        print(f"  check failed: {note}")
    return {
        "correct": failed == 0 and ops > 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "traceweights" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}/traceweights", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
