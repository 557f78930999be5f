#!/usr/bin/env python3
"""Benchmark of the tomopick pipeline: one workload per fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are made from --seed. Set-up runs several times, then
the workload's stage chain repeats for --seconds and every output is checked.
Two JSON lines go to stdout: a record of the inputs and environment, then the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, and the
spans are written to perfbench/_work/trace-<workload>-seed<N>.jsonl.

Self-tests: python3 -m pytest -q perfbench/selftest.py
"""

import os
import sys

# One BLAS thread: every workload runs with --workers 1, so the process uses
# one compute thread. This must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI reads its default worker count from here; every chain passes
# --workers explicitly, so the caller's value must not reach the program.
os.environ.pop("TOMOPICK_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tomopick").is_dir():
        print(f"error: no tomopick sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result, info = harness.run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                                            bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
