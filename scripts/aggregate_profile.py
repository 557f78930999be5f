#!/usr/bin/env python3
"""Time `tomopick.tiler.tiled_inference` with zero-cost crop predictors.

As in the oracle_dense benchmark workload, the input volume holds each
voxel's own linear index, so a predictor recovers its window origin from the
window's first voxel and returns a crop of a precomputed float32 field: the
time measured is the tiler's (window slicing, checks, blending, flushes),
not a net's. Geometries:

- oracle_dense: 48x256x256, 6 channels, window 16x64x64, strides 8x32x32,
  two members (two fields, one predictor each).
- wide: 32x656x656, 1 channel, window 16x128x128, strides 8x64x64, one
  member: rows of ten windows across a plane of the paper's XY size.

--divide K divides every length (volume, window, strides) by K, for a quick
run at a tiny size. After one warm-up call, --repeats calls are timed, in one
process with one BLAS thread. --block-bytes sets `tiler._BLOCK_BYTES` for the
run, to sweep the block size of the aggregation loop.

Usage: python3 scripts/aggregate_profile.py [--repeats N] [--divide K]
           [--geometry NAME ...] [--block-bytes B]
Prints one JSON line per geometry: its sizes, the median call time in ms and
the SHA-256 of the heatmap's bytes.
"""

import os

# One compute thread, as in the benchmark; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from tomopick import tiler  # noqa: E402
from tomopick.volgrid import Volume3D  # noqa: E402

# name: (dims, window, strides, channels, members)
GEOMETRIES = {
    "oracle_dense": ((48, 256, 256), (16, 64, 64), (8, 32, 32), 6, 2),
    "wide": ((32, 656, 656), (16, 128, 128), (8, 64, 64), 1, 1),
}


def crop_predictor(field, dims, window):
    wz, wy, wx = window

    def predict(win):
        z, y, x = np.unravel_index(int(win[0, 0, 0]), dims)
        return field[:, z : z + wz, y : y + wy, x : x + wx]

    return predict


def profile(dims, window, strides, channels, members, repeats):
    if math.prod(dims) >= 2**24:
        raise ValueError("ramp volume must stay exact in float32")
    rng = np.random.default_rng(0)
    fields = [rng.random((channels, *dims), dtype=np.float32) for _ in range(members)]
    ramp = Volume3D(np.arange(math.prod(dims), dtype=np.float32).reshape(dims))
    predictors = [crop_predictor(f, dims, window) for f in fields]

    def call():
        return tiler.tiled_inference(predictors, ramp, window_hw=window[1], xy_stride=strides[1],
                                     pad_to=dims[1], z_window=window[0], z_stride=strides[0])

    hm = call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        hm = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), hashlib.sha256(hm.data.tobytes()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--divide", type=int, default=1, metavar="K")
    parser.add_argument("--geometry", choices=sorted(GEOMETRIES), action="append",
                        help="geometry to time (repeatable; default all)")
    parser.add_argument("--block-bytes", type=int, metavar="B")
    args = parser.parse_args(argv)
    if args.block_bytes is not None:
        tiler._BLOCK_BYTES = args.block_bytes
    for name in args.geometry or list(GEOMETRIES):
        dims, window, strides, channels, members = GEOMETRIES[name]
        if any(n % args.divide for n in (*dims, *window, *strides)):
            parser.error(f"--divide {args.divide} does not divide every length of {name}")
        dims, window, strides = (tuple(n // args.divide for n in group) for group in (dims, window, strides))
        seconds, digest = profile(dims, window, strides, channels, members, args.repeats)
        print(json.dumps({"geometry": name, "dims": list(dims), "window": list(window),
                          "strides": list(strides), "channels": channels, "members": members,
                          "block_bytes": tiler._BLOCK_BYTES,
                          "median_ms": float(f"{1000 * seconds:.4g}"), "sha256": digest}), flush=True)


if __name__ == "__main__":
    main()
