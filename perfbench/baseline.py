"""Measure the benchmark's baseline and run-to-run spread on this host.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Run from the repository root.  For each workload in BENCHMARK.json it
makes ``--runs`` untraced runs at seeds first-seed, first-seed+1, ...
and one traced run, each a separate ``run.py`` process.  For every
end-to-end metric it reports the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound, and it writes those, the
output digests per seed, the traced run's per-layer metrics and
self-time shares, the layer-to-metric map and a host stamp to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(ln.split()[-1] for ln in lines if ln.strip().startswith("digest sha256"))
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return result, digest, lines[:-1]


def host_stamp():
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": 1,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def spread_row(values, bound, unit):
    q1, q2, q3 = quantiles(values, n=4)
    return {"unit": unit, "median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median(values), "bound": bound, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write the baseline JSON here")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"host": host_stamp(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        digests = {}
        for seed in seeds:
            result, digest, _ = run_once(name, seed, seconds, 0)
            digests[str(seed)] = digest
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        rows = {m["name"]: spread_row(values[m["name"]], m["bound"], m["unit"])
                for m in bench["end_to_end"]}
        for metric, row in rows.items():
            flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
            print(f"  {name} {metric}: median {row['median']:.6g} {row['unit']}, "
                  f"spread {row['spread']:.4f} (bound {row['bound']}) {flag}", flush=True)
        traced, _, text = run_once(name, seeds[0], seconds, 1)
        shares = {ln.split()[2]: float(ln.split()[3]) for ln in text
                  if ln.strip().startswith("self-time share")}
        out["workloads"][name] = {
            "end_to_end": rows,
            "digests": digests,
            "trace": {
                "seed": seeds[0],
                "self_time_shares": shares,
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    if args.out:
        sys.path.insert(0, str(HERE))
        from tracer import PER_LAYER

        out["layer_map"] = {m.name: m.moves for m in PER_LAYER}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
