#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts of this repository.

Usage:

    python3 scripts/bench_pairs.py DIR_A DIR_B --workload W --pairs N

Pair i runs `perfbench/run.py --workload W --seed 700+i --seconds S --trace 0`
once in each checkout, each run in a fresh process, where S is `run_seconds`
from BENCHMARK.json in DIR_A: A first in even pairs, B first in odd ones, so
drift of the machine hits both sides alike. Both runs of a pair share their
seed, and every pair has a new one. The script only runs each checkout's
benchmark; it changes no file of either.

One line per run goes to stdout, then one summary line per end-to-end metric:
each side's median and quartiles, the change of the medians, and the pairs in
which B is better (ties count for neither side). Which direction is better
comes from BENCHMARK.json in DIR_A. A last line gives each side's `src/` line
count, `src_lines A → B`, from the runs' environment lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED0 = 700  # pair i's seed is SEED0 + i


def run_metrics(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`, as `parse_run` reads it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True,
                         timeout=10 * seconds + 600).stdout
    return parse_run(out)


def parse_run(stdout: str) -> dict:
    """The stdout of `perfbench/run.py` as {metric: value}, plus "correct" from
    its result line (the last) and "src_lines" from its environment line (the
    first)."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "src_lines": json.loads(lines[0])["env"]["src_lines"],
            **{k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric in `better` ("lower" or "higher") over (A, B) runs,
    then the first pair's `src/` line counts."""
    lines = []
    for name, direction in better.items():
        a, b = ([run[name] for run in side] for side in zip(*pairs))
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        change = f"{100 * (bm - am) / am:+.1f}%" if am else "n/a"
        lines.append(f"{name} ({direction} is better): A {am:.4g} [{a1:.4g}, {a3:.4g}]  "
                     f"B {bm:.4g} [{b1:.4g}, {b3:.4g}]  change {change}  "
                     f"B better in {wins} of {len(pairs)} pairs, {ties} ties")
    a, b = pairs[0]
    return lines + [f"src_lines {a['src_lines']} → {b['src_lines']}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((args.dir_a / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        seed = SEED0 + i
        runs = {}
        for side in ("AB" if i % 2 == 0 else "BA"):
            checkout = args.dir_a if side == "A" else args.dir_b
            runs[side] = run_metrics(checkout, args.workload, seed, seconds)
            values = " ".join(f"{k}={v}" for k, v in runs[side].items())
            print(f"pair {i} {side} seed {seed} {values}", flush=True)
        pairs.append((runs["A"], runs["B"]))
    print("\n".join(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
