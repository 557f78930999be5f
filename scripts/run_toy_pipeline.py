#!/usr/bin/env python3
"""End-to-end demo on a single synthetic scene.

Generates a small tomogram with one particle class, trains a tiny variant-A
net on it, runs tiled inference + peak extraction, and scores the result
against the generated ground truth. Everything happens in a scratch
directory; total runtime is a few minutes on a laptop CPU.

Usage: python3 scripts/run_toy_pipeline.py [--workdir DIR] [--seed N]
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = """\
pipeline.spacing = 10.0
tiling.window = 32
tiling.xy_stride = 16
tiling.pad_to = 64
tiling.z_window = 16
tiling.z_stride = 8
nms.kernel = 7
class.blob.radius = 50.0
class.blob.sigma_vox = 2.5
class.blob.detect_threshold = 0.25
class.blob.match_radius_tau = 100.0
class.blob.metric_weight = 1.0
"""


SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli(*args):
    """Run one tomopick command in a child process that imports the package from this checkout."""
    cmd = [sys.executable, "-m", "tomopick.cli", *map(str, args)]
    print("+", " ".join(cmd[2:]))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    subprocess.run(cmd, check=True, env={**os.environ, "PYTHONPATH": path})


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", help="reuse a directory instead of a tempdir")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    work = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="tomopick_"))
    work.mkdir(parents=True, exist_ok=True)
    print(f"working in {work}")

    cfg = work / "pipeline.cfg"
    cfg.write_text(CONFIG)

    scenes = work / "scenes"
    scenes.mkdir(exist_ok=True)
    for i in range(8):
        cli(
            "gen", "--config", cfg, "--seed", args.seed + i,
            "--dims", 32, 64, 64, "--counts", "blob=4",
            "--noise-sigma", 0.02, "--min-separation", 150.0,
            "--out-volume", scenes / f"scene{i}.vol",
            "--out-picks", scenes / f"scene{i}.picks",
        )

    held_vol = work / "held.vol"
    held_gt = work / "held.picks"
    cli(
        "gen", "--config", cfg, "--seed", args.seed + 999,
        "--dims", 32, 64, 64, "--counts", "blob=4",
        "--noise-sigma", 0.02, "--min-separation", 150.0,
        "--out-volume", held_vol, "--out-picks", held_gt,
    )

    ckpt = work / "model.wts"
    cli(
        "train", "--config", cfg, "--seed", args.seed,
        "--data", scenes, "--out", ckpt,
        "--variant", "A", "--window-hw", 32,
        "--epochs", 10, "--warmup-epochs", 1, "--lr", 1e-2,
        "--batch-size", 8, "--loss", "balanced",
    )

    heatmap = work / "held.hmc"
    cli("infer", ckpt, "--config", cfg, "--volume", held_vol, "--out", heatmap)

    pred = work / "held_pred.picks"
    cli("pick", "--config", cfg, "--heatmap", heatmap, "--out", pred)
    cli("eval", "--config", cfg, "--pred", pred, "--gt", held_gt)


if __name__ == "__main__":
    main()
