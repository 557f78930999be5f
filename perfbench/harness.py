"""Run bookkeeping: stage calls and their checks, the timed loop, and the
result line.

A stage call is one CLI command or one library stage that a workload chains.
It fails if it raises (a nonzero CLI exit code raises) or if its output
check finds a problem. Checks run after the repetition's clock stops.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spec
from tracer import Tracer

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_REPS = 2


class StageFailed(Exception):
    pass


class Ledger:
    """Counts stage calls and failures over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, stage: str, problem: str) -> None:
        self.failed += 1
        self.errors.append(f"{stage}: {problem}")


class Rep:
    """One pass over a workload's chain. Calls run immediately; their checks
    are queued and run by finish()."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.pending = []

    def call(self, stage: str, fn, *args, check=None, **kwargs):
        self.ledger.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.ledger.fail(stage, traceback.format_exc(limit=3).strip().splitlines()[-1])
            raise StageFailed(stage)
        if check is not None:
            self.pending.append((stage, check, out))
        return out

    def finish(self) -> bool:
        ok = True
        for stage, check, out in self.pending:
            try:
                problem = check(out)
            except Exception:
                problem = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            if problem:
                self.ledger.fail(stage, problem)
                ok = False
        self.pending = []
        return ok


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Set up, measure for `seconds`, check; return (result, info).

    Untraced: setup_s is the median over set-ups, repeated at least
    SETUP_REPEATS times and for SETUP_SECONDS, and wall_s the median over
    repetitions of the chain. Traced: one traced set-up, then
    repetitions alternate untraced and traced; per-layer values are the
    set-up's plus the median over traced repetitions.
    """
    ledger = Ledger()
    tracer = Tracer() if trace else None
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = []
    inputs = None
    min_repeats, min_seconds = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_SECONDS)
    setup_start = time.perf_counter()
    while len(setup_times) < min_repeats or time.perf_counter() - setup_start < min_seconds:
        inputs = None  # release the previous set-up's arrays first
        rep = Rep(ledger)
        where = work / f"setup{len(setup_times)}"
        where.mkdir()
        t0 = time.perf_counter()
        try:
            with tracer.recording("setup") if trace else contextlib.nullcontext():
                inputs = workload.setup(where, seed, rep)
        except StageFailed:
            raise RuntimeError(f"set-up failed: {ledger.errors}") from None
        setup_times.append(time.perf_counter() - t0)
        if not rep.finish():
            raise RuntimeError(f"set-up failed: {ledger.errors}")

    # The first pass over the chain is a warm-up (allocator pools, worker
    # threads, file cache): its outputs are checked but its time is not used.
    rep = Rep(ledger)
    with contextlib.suppress(StageFailed):
        workload.chain(inputs, rep)
    rep.finish()

    walls = {False: [], True: []}
    traced_labels = []
    start = time.perf_counter()
    index = 0
    passes = []  # time of each whole pass, checks included
    # A pass starts only if a typical one still ends within `seconds`.
    while index < MIN_REPS or time.perf_counter() - start + statistics.median(passes) <= seconds:
        pass_start = time.perf_counter()
        traced = trace and index % 2 == 1
        label = f"rep{index}"
        rep = Rep(ledger)
        t0 = time.perf_counter()
        try:
            with tracer.recording(label) if traced else contextlib.nullcontext():
                workload.chain(inputs, rep)
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                traced_labels.append(label)
        except StageFailed:
            pass
        rep.finish()
        passes.append(time.perf_counter() - pass_start)
        index += 1

    rep = Rep(ledger)
    with contextlib.suppress(StageFailed):
        workload.final_check(inputs, rep)
    rep.finish()

    if not walls[False] or (trace and not walls[True]) or workload.fbeta is None:
        raise RuntimeError(f"no repetition completed and scored: {ledger.errors}")

    if trace:
        metrics = _per_layer_metrics(tracer, traced_labels, walls)
        tracer.write(work.parent / f"trace-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fbeta": workload.fbeta,
            "ops_ok_frac": 1.0 - ledger.failed / ledger.attempted,
        }
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "reps": len(walls[False]) + len(walls[True]),
        "setup_times_s": setup_times,
        "rep_walls_s": walls[False],
        "traced_rep_walls_s": walls[True],
        "inputs": workload.describe(),
        "errors": ledger.errors,
        "env": environment(),
    }
    return result, info


def _per_layer_metrics(tracer: Tracer, traced_labels, walls) -> dict:
    setup = tracer.totals("setup")
    reps = [tracer.totals(label) for label in traced_labels]
    traced_wall = statistics.median(walls[True])
    values = {}
    for name, unit, _ in spec.PER_LAYER:
        values[name] = setup.get(name, 0.0) + statistics.median(r.get(name, 0.0) for r in reps)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(walls[False])
    values["trace.stage_coverage"] = statistics.median(
        tracer.stage_time(label) / wall for label, wall in zip(traced_labels, walls[True])
    )
    units = {name: unit for name, unit, _ in spec.PER_LAYER}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def environment() -> dict:
    root = Path(__file__).resolve().parent.parent
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))),
    }


def _git_commit(root: Path) -> str:
    """HEAD from the checkout's own .git, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
