"""Benchmark of the RDTE-UNet package, run from the repository root:

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` makes the traced run and prints the per-layer metrics.
``--workload all`` runs every workload, one fresh process each. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment and run details. The exit code is 0 only when every operation
and check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
# One BLAS thread: other tenants of a shared machine stall one core at a
# time, and a stalled core stalls every GEMM split across two threads.
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """numpy must not be imported yet: OpenBLAS reads these when it loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        if not lines:
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the benchmark itself: one cold set-up of the workload config
    # given as JSON, which prints its time and exits
    parser.add_argument("--setup-only", metavar="CONFIG", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rdteunet", "__init__.py")):
        print(f"perfbench: no package at {os.path.relpath(SRC)}/rdteunet; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2

    pin_blas_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # numpy and the package load here; that time is part of setup_s
    import_s = time.perf_counter() - t0
    if args.setup_only:
        wl = workloads.Workload(**json.loads(args.setup_only))
        print(json.dumps(workloads.child_setup(wl, args.seed, WORK_DIR, import_s)))
        return 0
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")

    spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.json")
    res = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), import_s, WORK_DIR,
                        spans_path if args.trace else None)
    info = res.pop("info")
    print(json.dumps({"info": info}))
    print(json.dumps(res))
    return 0 if res["correct"] and res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
