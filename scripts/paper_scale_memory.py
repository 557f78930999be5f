#!/usr/bin/env python3
"""Peak memory and wall time of inference and picking at paper scale.

Phase 1 runs two zero-cost models through `tiler.tiled_inference` on a
volume of --dims and writes the ensemble with `write_heatmap`. Each model
returns one fixed, seeded random prediction for every window, so the time
and memory are the tiler's and the writer's, not a net's. Phase 2 runs
`tomopick pick` on that file. Each phase runs in a fresh child process that
reports its wall time, imports included, and its own peak RSS (`ru_maxrss`).

The plan is the default config's with variant B's windows (2 * z_window
deep), clipped to the volume; XY is padded to the smallest plan-aligned size
that covers it, which is the default 656 at 630. The default --dims is the
paper's 184 x 630 x 630; there it needs about 3 GB and two minutes.

Usage: python3 scripts/paper_scale_memory.py [--dims D H W] [--workdir DIR]
Prints one JSON line per phase, then one with the heatmap's SHA-256.
"""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import resource
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Each phase imports the program in its child process only, so the parent
# stays small and each child starts from a bare interpreter.


def infer_and_write(dims, path):
    sys.path.insert(0, SRC)
    import numpy as np
    from tomopick import tiler
    from tomopick.config import PipelineConfig
    from tomopick.volgrid import Volume3D, write_heatmap

    def zero_cost_model(seed, shape):
        pred = np.random.default_rng(seed).random(shape, dtype=np.float32)
        return lambda window: pred

    d, h, w = dims
    cfg = PipelineConfig()
    z_window, window = min(2 * cfg.z_window, d), min(cfg.window, h, w)
    xy_stride, z_stride = min(cfg.xy_stride, window), min(cfg.z_stride, z_window)
    pad_to = window + xy_stride * math.ceil((max(h, w) - window) / xy_stride)
    models = [zero_cost_model(seed, (len(cfg.classes), z_window, window, window)) for seed in (1, 2)]
    hm = tiler.tiled_inference(models, Volume3D(np.zeros(dims, dtype=np.float32)), window_hw=window,
                               xy_stride=xy_stride, pad_to=pad_to, z_window=z_window, z_stride=z_stride)
    write_heatmap(hm, path)


def pick(path):
    sys.path.insert(0, SRC)
    from tomopick import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["pick", "--heatmap", str(path), "--out", str(path.with_suffix(".picks"))])
    if code != 0:
        raise RuntimeError(f"tomopick pick exited {code}")


def _measured(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dims", type=int, nargs=3, default=(184, 630, 630), metavar=("D", "H", "W"))
    ap.add_argument("--workdir", help="keep the heatmap and picks here (default: a temporary directory)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(args.workdir or tmp) / "heatmap.hmc"
        path.parent.mkdir(parents=True, exist_ok=True)
        for phase, fn, fn_args in (("infer+write", infer_and_write, (tuple(args.dims), path)),
                                   ("read+pick", pick, (path,))):
            ctx = multiprocessing.get_context("spawn")
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
                wall, rss = pool.submit(_measured, fn, *fn_args).result()
            print(json.dumps({"phase": phase, "wall_s": round(wall, 2), "peak_rss_mb": round(rss)}), flush=True)
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 24), b""):
                digest.update(block)
        print(json.dumps({"heatmap_sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
