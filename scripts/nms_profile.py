#!/usr/bin/env python3
"""Time and memory of `tomopick.postproc.local_maxima` on four kinds of channel.

The kinds are all ones (one plateau: every voxel is a candidate), uniform
noise, all zeros (nothing passes the threshold) and smoothed noise (uniform
noise blurred by four binomial [1, 2, 1] / 4 passes per axis, then rescaled
to [0, 1]). Each runs at every --shape with kernel 7 and threshold 0.5,
float32, in one process with one BLAS thread. After one warm-up call,
--repeats calls are timed; then one more call runs under tracemalloc, which
counts what numpy allocates after the channel exists.

Usage: python3 scripts/nms_profile.py [--repeats N] [--shape D H W ...]
Prints one JSON line per shape and kind: the median call time in ms, the
tracemalloc peak in channel sizes (peak / channel nbytes) and the peak count.
"""

import os

# One compute thread, as in the benchmark; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from tomopick.postproc import local_maxima  # noqa: E402

KERNEL = 7
MIN_VALUE = 0.5


def smoothed_noise(shape, rng):
    ch = rng.random(shape)
    for _ in range(4):
        for axis in range(3):
            ch = (np.roll(ch, 1, axis) + 2 * ch + np.roll(ch, -1, axis)) / 4
    return ((ch - ch.min()) / (ch.max() - ch.min())).astype(np.float32)


def channels(shape):
    rng = np.random.default_rng(0)
    yield "ones", np.ones(shape, dtype=np.float32)
    yield "noise", rng.random(shape, dtype=np.float32)
    yield "zeros", np.zeros(shape, dtype=np.float32)
    yield "smoothed", smoothed_noise(shape, rng)


def profile(channel, repeats):
    local_maxima(channel, KERNEL, MIN_VALUE)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        local_maxima(channel, KERNEL, MIN_VALUE)
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        peaks = local_maxima(channel, KERNEL, MIN_VALUE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak / channel.nbytes, len(peaks)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--shape", type=int, nargs=3, action="append", metavar=("D", "H", "W"),
                        help="channel shape (repeatable; default 64 128 128 and 48 256 256)")
    args = parser.parse_args(argv)
    for shape in args.shape or [(64, 128, 128), (48, 256, 256)]:
        for kind, channel in channels(tuple(shape)):
            seconds, peak_channels, peaks = profile(channel, args.repeats)
            print(json.dumps({"shape": list(shape), "kind": kind, "kernel": KERNEL,
                              "min_value": MIN_VALUE, "median_ms": float(f"{1000 * seconds:.3g}"),
                              "peak_channels": round(peak_channels, 3), "peaks": peaks}), flush=True)


if __name__ == "__main__":
    main()
