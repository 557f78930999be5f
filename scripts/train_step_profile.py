#!/usr/bin/env python3
"""Time and memory of one training step of each net at its benchmark window.

Variant A runs at a 16 x 32 x 32 window and variant B at 16 x 64 x 64, both
with 6 classes, widths 8, 16, 32, 32 and B's decoder width 16. A step is one
training-mode forward of a fixed seeded window and one backward of a fixed
seeded output gradient. After one warm-up step, --steps steps are timed.
Then one more step runs under tracemalloc, which counts what numpy allocates
from the step's start:

- forward_held_mb: held when the forward returns (its caches and output);
- forward_peak_mb: the most held during the forward;
- backward_peak_mb: the most held during the backward, the caches and the
  output gradient included.

The process uses one BLAS thread and pins glibc's heap thresholds to the
values `tomopick.cli.run` sets, so a step pays no page faults from the heap
handing memory back to the kernel.

Usage: python3 scripts/train_step_profile.py [--steps N] [--a-window D HW] [--b-window D HW]
Prints one JSON line per variant: its window, the median step time in ms and
the three tracemalloc figures in MB.
"""

import os

# One compute thread, as in the benchmark; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from tomopick import nets  # noqa: E402

MB = 1 << 20


def step(net, x, gy):
    net.forward(x)
    net.backward(gy)


def profile(variant, depth, hw, steps):
    cfg = nets.NetConfig(variant=variant, in_depth=depth, window_hw=hw, class_count=6,
                         widths=(8, 16, 32, 32), decoder_width=16)
    net = nets.build_net(cfg)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(depth, hw, hw)).astype(np.float32)
    gy = rng.normal(size=(cfg.class_count, depth, hw, hw)).astype(np.float32)
    step(net, x, gy)
    times = []
    for _ in range(steps):
        t0 = time.perf_counter()
        step(net, x, gy)
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        y = net.forward(x)
        held, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        net.backward(gy.copy())  # a new gradient, as a loss makes each step
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del y
    return {"variant": variant, "window": [depth, hw, hw], "steps": steps,
            "step_ms": round(1e3 * statistics.median(times), 2), "forward_held_mb": round(held / MB, 1),
            "forward_peak_mb": round(forward_peak / MB, 1), "backward_peak_mb": round(backward_peak / MB, 1)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=10, help="timed steps per variant")
    ap.add_argument("--a-window", type=int, nargs=2, default=(16, 32), metavar=("D", "HW"))
    ap.add_argument("--b-window", type=int, nargs=2, default=(16, 64), metavar=("D", "HW"))
    args = ap.parse_args()
    with contextlib.suppress(AttributeError, OSError):  # mallopt is glibc's
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20), libc.mallopt(-1, 256 << 20)  # M_MMAP_, M_TRIM_THRESHOLD
    for variant, (depth, hw) in (("A", args.a_window), ("B", args.b_window)):
        print(json.dumps(profile(variant, depth, hw, args.steps)), flush=True)


if __name__ == "__main__":
    main()
