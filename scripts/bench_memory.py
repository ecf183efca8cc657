#!/usr/bin/env python3
"""Per-round memory of the ``transfer`` benchmark workload in one process; writes BENCH_memory.json.

    python3 scripts/bench_memory.py --label change --rounds 30
    python3 scripts/bench_memory.py --label parent --root ../parent-checkout

Runs ``--rounds`` cycles of what ``perfbench/run.py`` does for each round
of the desk ``transfer`` workload: five set-ups, one round, its output
check.  ``--root`` names the checkout whose ``src/`` and ``perfbench/``
are imported (default: this one), so one script measures two trees.
BLAS is pinned to one thread before NumPy loads.  After each round the
row records the process's peak RSS (``ru_maxrss``), the minor page faults
the round took, and glibc's ``mallinfo2()`` totals: ``arena_mb`` (heap
bytes taken from the system by ``brk``), ``in_use_mb`` and ``free_mb``
(the arena's allocated and free bytes) and ``mmapped_mb`` (blocks mapped
on their own).  They are read through ``ctypes``, and are null where the
C library has no ``mallinfo2``.  The row is stored under ``--label`` in
``--out``; rows of other labels already there are kept.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_ROUND = 5  # as perfbench/run.py
MB = 1024.0 * 1024.0
_MALLINFO2_FIELDS = ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
                     "uordblks", "fordblks", "keepcost")


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in _MALLINFO2_FIELDS]


def _mallinfo2():
    """glibc's ``mallinfo2`` as a function, or None where the C library lacks it."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        return None
    fn.argtypes = []
    fn.restype = _Mallinfo2
    return fn


def heap_mb(mallinfo2):
    """The heap totals of one ``mallinfo2()`` call in MB, all None without it."""
    if mallinfo2 is None:
        return {"arena_mb": None, "in_use_mb": None, "free_mb": None, "mmapped_mb": None}
    info = mallinfo2()
    return {"arena_mb": info.arena / MB, "in_use_mb": info.uordblks / MB,
            "free_mb": info.fordblks / MB, "mmapped_mb": info.hblkhd / MB}


def commit_of(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the row's name in --out, e.g. parent")
    ap.add_argument("--root", default=str(ROOT), help="checkout whose src/ and perfbench/ run")
    ap.add_argument("--out", default=str(ROOT / "BENCH_memory.json"))
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import numpy as np
    from workloads import WORKLOADS

    mallinfo2 = _mallinfo2()
    workdir = Path(tempfile.mkdtemp(prefix="bench-memory-"))
    rows = []
    try:
        for i in range(1, args.rounds + 1):
            for _ in range(SETUPS_PER_ROUND):
                wl = WORKLOADS["transfer"](args.seed, "desk", workdir)
                wl.setup()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = perf_counter()
            out = wl.run_round()
            round_s = perf_counter() - t0
            usage = resource.getrusage(resource.RUSAGE_SELF)
            check = wl.check(out)
            del out
            row = {"round": i, "round_s": round_s, "maxrss_mb": usage.ru_maxrss / 1024.0,
                   "minor_faults": usage.ru_minflt - faults, **heap_mb(mallinfo2),
                   "failed": check.failed}
            rows.append(row)
            heap = ("" if row["arena_mb"] is None else
                    f" arena {row['arena_mb']:.1f} MB (in use {row['in_use_mb']:.1f}, "
                    f"free {row['free_mb']:.1f}, mmapped {row['mmapped_mb']:.1f})")
            print(f"round {i:3d} {round_s:6.2f} s  maxrss {row['maxrss_mb']:.1f} MB  "
                  f"faults {row['minor_faults']}{heap}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_path = Path(args.out)
    report = json.loads(out_path.read_text()) if out_path.is_file() else {}
    report["what"] = ("transfer workload (desk, perfbench) set-up-and-round cycles in one "
                      "process: per round peak RSS, minor page faults of the round, and "
                      "glibc mallinfo2 heap totals after it")
    report.setdefault("rows", {})[args.label] = {
        "commit": commit_of(root),
        "seed": args.seed,
        "rounds": args.rounds,
        "setups_per_round": SETUPS_PER_ROUND,
        "blas_threads": 1,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "libc": " ".join(platform.libc_ver()).strip() or None,
        "peak_rss_mb": rows[-1]["maxrss_mb"],
        "max_arena_mb": None if mallinfo2 is None else max(r["arena_mb"] for r in rows),
        "per_round": rows,
    }
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"peak RSS {rows[-1]['maxrss_mb']:.1f} MB -> {out_path}")


if __name__ == "__main__":
    main()
