"""The three workloads. Each makes its inputs from the seed in setup(), runs
its stage chain in chain(), and checks outputs with rules that hold for any
seed. Sizes are chosen so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from tomopick import cli, coords, metric, nets, postproc, synthdata, tiler, volgrid
from tomopick.config import PipelineConfig, default_classes, format_config


class CliError(RuntimeError):
    pass


def run_cli(*argv) -> str:
    """One in-process CLI command; returns its stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    if code != 0:
        raise CliError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _weighted_score(eval_stdout: str) -> float:
    for line in eval_stdout.splitlines():
        if line.startswith("weighted_score="):
            return float(line.partition("=")[2])
    raise ValueError("eval printed no weighted_score line")


class Workload:
    """setup(work, seed, rep) makes the inputs; chain(inputs, rep) runs the
    timed stages through rep.call; describe() records input sizes;
    final_check(inputs, rep) runs once after timing. fbeta holds the run's
    score once a repetition is checked."""

    name = ""

    def __init__(self):
        self.fbeta = None

    def final_check(self, inputs, rep) -> None:
        pass

    def _same_fbeta(self, value: float) -> str | None:
        """The run's fbeta; every repetition must reproduce it exactly."""
        if self.fbeta is None:
            self.fbeta = value
        elif value != self.fbeta:
            return f"fbeta {value!r} differs from the first repetition's {self.fbeta!r}"
        return None


# --- toy_chain ---------------------------------------------------------------

TOY_CONFIG = """\
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


class ToyChain(Workload):
    """The toy pipeline (train variant A, infer, pick, eval) through cli.run.

    Each training scene is exactly one 16x32x32 training window holding one
    particle, so the training set has TRAIN_SCENES windows for every seed;
    scenes cut into several windows would keep a seed-dependent number.
    """

    name = "toy_chain"
    TRAIN_SCENES = 20
    HELD_DIMS = (32, 64, 64)
    HELD_PARTICLES = 12  # enough that fbeta moves little from seed to seed
    EPOCHS = 10
    FBETA_FLOOR = 0.8  # the learned-pipeline acceptance floor

    def describe(self):
        return {"train_windows": self.TRAIN_SCENES, "held_out_dims": list(self.HELD_DIMS),
                "held_out_particles": self.HELD_PARTICLES,
                "epochs": self.EPOCHS}

    def setup(self, work: Path, seed: int, rep):
        cfg = work / "pipeline.cfg"
        cfg.write_text(TOY_CONFIG)
        scenes = work / "scenes"
        scenes.mkdir()
        for i in range(self.TRAIN_SCENES):
            rep.call("gen", run_cli, "gen", "--config", cfg, "--seed", seed * 1000 + i,
                     "--dims", 16, 32, 32, "--counts", "blob=1", "--noise-sigma", 0.02,
                     "--out-volume", scenes / f"scene{i}.vol", "--out-picks", scenes / f"scene{i}.picks")
        rep.call("gen", run_cli, "gen", "--config", cfg, "--seed", seed * 1000 + 999,
                 "--dims", *self.HELD_DIMS, "--counts", f"blob={self.HELD_PARTICLES}",
                 "--noise-sigma", 0.02, "--min-separation", 150.0, "--out-volume", work / "held.vol",
                 "--out-picks", work / "held.picks")
        # warm-up: one forward/backward of the net the chain trains
        net = nets.build_net(nets.NetConfig(variant="A", in_depth=16, window_hw=32,
                                            widths=(8, 16, 32, 32), seed=seed))
        out = net.forward(np.zeros((16, 32, 32), dtype=np.float32))
        net.backward(np.ones_like(out))
        return {"work": work, "cfg": cfg, "seed": seed}

    def chain(self, inputs, rep):
        work, cfg = inputs["work"], inputs["cfg"]
        ckpt, heatmap, picks = work / "model.wts", work / "held.hmc", work / "held_pred.picks"
        rep.call("train", run_cli, "train", "--config", cfg, "--seed", inputs["seed"],
                 "--data", work / "scenes", "--out", ckpt, "--variant", "A", "--window-hw", 32,
                 "--epochs", self.EPOCHS, "--warmup-epochs", 1, "--lr", 1e-2,
                 "--batch-size", 8, "--loss", "balanced",
                 check=lambda out: self._check_loss(ckpt.with_suffix(".loss.txt")))
        rep.call("infer", run_cli, "infer", ckpt, "--config", cfg, "--volume", work / "held.vol",
                 "--workers", 1, "--out", heatmap,
                 check=lambda out: _check_heatmap(volgrid.read_heatmap(heatmap).data, (1, *self.HELD_DIMS)))
        rep.call("pick", run_cli, "pick", "--config", cfg, "--heatmap", heatmap, "--out", picks)
        rep.call("eval", run_cli, "eval", "--config", cfg, "--pred", picks, "--gt", work / "held.picks",
                 check=self._check_eval)

    def _check_loss(self, log: Path):
        history = [float(line.split()[1]) for line in log.read_text().splitlines()]
        if len(history) != self.EPOCHS:
            return f"{len(history)} epochs logged, expected {self.EPOCHS}"
        if not history[-1] < history[0] / 2:
            return f"final loss {history[-1]} not below half the first {history[0]}"
        return None

    def _check_eval(self, out: str):
        score = _weighted_score(out)
        low = None if score >= self.FBETA_FLOOR else f"fbeta {score} below the floor {self.FBETA_FLOOR}"
        return self._same_fbeta(score) or low


def _check_heatmap(data: np.ndarray, shape) -> str | None:
    if data.shape != tuple(shape):
        return f"heatmap shape {data.shape}, expected {tuple(shape)}"
    if not np.isfinite(data).all():
        return "heatmap has non-finite values"
    return None


# --- infer_b_ensemble --------------------------------------------------------

class InferBEnsemble(Workload):
    """`cli infer` of two untrained variant-B checkpoints over a 6-class scene
    with one worker, then pick and eval. Each model runs eight windows: 2x2
    overlapping in XY, two in Z.

    One worker keeps the process to one compute thread: on a two-CPU shared
    host, a second one made the wall time swing by tens of percent between
    runs. The worker pool is then not on the path; the per-worker checkpoint
    reload still is (one load per model).

    Untrained nets output values of order 1e-4, so the detect threshold is
    1e-5: picks are the positive local maxima, and fbeta stays above 0.
    """

    name = "infer_b_ensemble"
    CHECKPOINT_SEEDS = (1, 2)
    DIMS = (32, 104, 104)
    PER_CLASS = 80  # enough that fbeta moves little from seed to seed
    WORKERS = 1
    CONFIG = PipelineConfig(
        classes=tuple(replace(c, detect_threshold=1e-5) for c in default_classes()),
        # XY is reflect-padded by 4 voxels a side, so the crop back is exercised
        window=64, xy_stride=48, pad_to=DIMS[1] + 8, z_window=8, z_stride=16,
    )

    def __init__(self):
        super().__init__()
        self.heatmap_digest = None

    def describe(self):
        return {"dims": list(self.DIMS), "per_class": self.PER_CLASS, "workers": self.WORKERS,
                "checkpoint_seeds": list(self.CHECKPOINT_SEEDS), "pad_to": self.CONFIG.pad_to}

    def net_config(self, seed: int) -> nets.NetConfig:
        c = self.CONFIG
        return nets.NetConfig(variant="B", in_depth=2 * c.z_window, window_hw=c.window,
                              class_count=len(c.classes), widths=(8, 16, 32, 32),
                              decoder_width=16, seed=seed)

    def setup(self, work: Path, seed: int, rep):
        cfg = work / "pipeline.cfg"
        cfg.write_text(format_config(self.CONFIG))
        counts = ",".join(f"{c.name}={self.PER_CLASS}" for c in self.CONFIG.classes)
        rep.call("gen", run_cli, "gen", "--config", cfg, "--seed", seed, "--dims", *self.DIMS,
                 "--counts", counts, "--noise-sigma", 0.05,
                 "--out-volume", work / "scene.vol", "--out-picks", work / "scene.picks")
        ckpts = []
        for s in self.CHECKPOINT_SEEDS:
            path = work / f"model{s}.wts"
            rep.call("save_weights", nets.save_weights, path, nets.build_net(self.net_config(s)))
            ckpts.append(path)
        # warm-up: load each checkpoint and run one window
        window = np.zeros((2 * self.CONFIG.z_window, self.CONFIG.window, self.CONFIG.window),
                          dtype=np.float32)
        for s, path in zip(self.CHECKPOINT_SEEDS, ckpts):
            nets.load_net(path, self.net_config(s)).forward(window)
        return {"work": work, "cfg": cfg, "ckpts": ckpts}

    def chain(self, inputs, rep):
        work, cfg = inputs["work"], inputs["cfg"]
        heatmap, picks = work / "scene.hmc", work / "pred.picks"
        rep.call("infer", run_cli, "infer", *inputs["ckpts"], "--config", cfg, "--variant", "B",
                 "--volume", work / "scene.vol", "--workers", self.WORKERS, "--out", heatmap,
                 check=lambda out: self._check_heatmap(heatmap))
        rep.call("pick", run_cli, "pick", "--config", cfg, "--heatmap", heatmap, "--out", picks,
                 check=lambda out: None if coords.read_picks(picks, list(self.CONFIG.classes)).records
                 else "no picks")
        rep.call("eval", run_cli, "eval", "--config", cfg, "--pred", picks, "--gt", work / "scene.picks",
                 check=self._check_eval)

    def _check_heatmap(self, path: Path):
        problem = _check_heatmap(volgrid.read_heatmap(path).data, (len(self.CONFIG.classes), *self.DIMS))
        if problem:
            return problem
        d = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.heatmap_digest is None:
            self.heatmap_digest = d
        elif d != self.heatmap_digest:
            return "heatmap bytes differ from the first repetition's"
        return None

    def _check_eval(self, out: str):
        score = _weighted_score(out)
        return self._same_fbeta(score) or (None if score > 0.0 else f"fbeta {score} is not above 0")


# --- oracle_dense ------------------------------------------------------------

@dataclass
class OracleInputs:
    work: Path
    classes: list
    gt: coords.PickSet
    target: np.ndarray  # (C, D, H, W) float32, the rasterized ground truth
    noisy: np.ndarray  # target plus a smoothed noise floor with planted ties
    ramp: volgrid.Volume3D


class OracleDense(Workload):
    """Zero-cost oracle predictors through tiled inference, then NMS, picks
    I/O and matching on a dense 6-class volume.

    The input volume holds each voxel's own linear index, so a predictor
    recovers its window origin from the first voxel and returns a crop of a
    precomputed field at no cost. The ensemble has two members: the exact
    rasterized target, and the target plus a Gaussian-smoothed (sigma 2)
    noise floor. Per-class thresholds leave thousands of noise maxima per
    class, as a recall-weighted threshold sweep would. In each class,
    ties_per_class two-voxel plateaus are planted in the noise floor, away
    from particles, so the NMS tie-break runs a bounded, counted number of
    times.
    """

    name = "oracle_dense"
    WINDOW = (16, 64, 64)
    STRIDES = (8, 32, 32)
    THRESHOLDS = (0.10, 0.12, 0.14, 0.16, 0.18, 0.20)
    NOISE_STD = 0.3
    NMS_KERNEL = 7

    def __init__(self, dims=(48, 256, 256), per_class=60, ties_per_class=20):
        super().__init__()
        if math.prod(dims) >= 2**24:
            raise ValueError("ramp volume must stay exact in float32")
        self.dims = dims
        self.per_class = per_class
        self.ties_per_class = ties_per_class
        self.ties_planted = 0
        self.classes = [replace(c, detect_threshold=t) for c, t in zip(default_classes(), self.THRESHOLDS)]

    def describe(self):
        return {"dims": list(self.dims), "per_class": self.per_class,
                "ties_planted": self.ties_planted,
                "window": list(self.WINDOW), "strides": list(self.STRIDES)}

    def setup(self, work: Path, seed: int, rep):
        spec = synthdata.SceneSpec(dims=self.dims, classes=self.classes,
                                   counts=(self.per_class,) * len(self.classes),
                                   min_separation=100.0, seed=seed, spacing=10.0)
        _, gt = rep.call("generate_tomogram", synthdata.generate_tomogram, spec)
        target = rep.call("rasterize_heatmap", coords.rasterize_heatmap, gt, self.classes, self.dims).data
        rng = np.random.Generator(np.random.PCG64(seed))
        noisy = np.empty_like(target)
        self.ties_planted = 0
        for c, cls in enumerate(self.classes):
            floor = gaussian_filter(rng.standard_normal(self.dims, dtype=np.float32), 2.0)
            floor *= np.float32(self.NOISE_STD / floor.std())
            self.ties_planted += _plant_ties(floor, target[c], rng, self.ties_per_class, cls.detect_threshold)
            np.add(target[c], floor, out=noisy[c])
        ramp = volgrid.Volume3D(np.arange(math.prod(self.dims), dtype=np.float32).reshape(self.dims), 10.0)
        return OracleInputs(work, self.classes, gt, target, noisy, ramp)

    def _predictor(self, field: np.ndarray):
        wz, wy, wx = self.WINDOW
        dims = self.dims

        def predict(window: np.ndarray) -> np.ndarray:
            z, y, x = np.unravel_index(int(window[0, 0, 0]), dims)
            return field[:, z : z + wz, y : y + wy, x : x + wx]

        return predict

    def _infer(self, fields, inputs: OracleInputs):
        return tiler.tiled_inference(
            [self._predictor(f) for f in fields], inputs.ramp,
            window_hw=self.WINDOW[1], xy_stride=self.STRIDES[1], pad_to=self.dims[1],
            z_window=self.WINDOW[0], z_stride=self.STRIDES[0], workers=1,
        )

    def chain(self, inputs: OracleInputs, rep):
        classes = inputs.classes
        hm_path, path = inputs.work / "pred.hmc", inputs.work / "pred.picks"
        hm = rep.call("tiled_inference", self._infer, (inputs.target, inputs.noisy), inputs,
                      check=lambda hm: _check_heatmap(hm.data, (len(classes), *self.dims)))
        rep.call("write_heatmap", volgrid.write_heatmap, hm, hm_path)
        hm = rep.call("read_heatmap", volgrid.read_heatmap, hm_path)
        picks = rep.call("extract_picks", postproc.extract_picks, hm, classes, kernel=self.NMS_KERNEL,
                         check=lambda p: None if p.records else "no picks")
        rep.call("write_picks", coords.write_picks, picks, classes, path)
        back = rep.call("read_picks", coords.read_picks, path, classes, hm.spacing,
                        check=lambda b: None if b.records == picks.records else "picks changed in a file round trip")
        rep.call("evaluate", metric.evaluate, back, inputs.gt, classes,
                 check=lambda ev: self._same_fbeta(ev.weighted) or _all_matched(ev))

    def final_check(self, inputs: OracleInputs, rep):
        """The exact-target member alone reproduces the target bit for bit,
        and its peaks match every ground-truth particle."""
        hm = rep.call("exact_model", self._infer, (inputs.target,), inputs,
                      check=lambda hm: None if np.array_equal(hm.data, inputs.target)
                      else "exact-target model's heatmap differs from the target")
        picks = rep.call("exact_model_picks", postproc.extract_picks, hm, inputs.classes,
                         kernel=self.NMS_KERNEL)
        rep.call("exact_model_eval", metric.evaluate, picks, inputs.gt, inputs.classes, check=_all_matched)


def _all_matched(ev) -> str | None:
    missed = {cs.name: cs.match.fn for cs in ev.per_class if cs.match.fn}
    return f"unmatched ground truth per class: {missed}" if missed else None


def _plant_ties(floor: np.ndarray, target: np.ndarray, rng, count: int, threshold: float) -> int:
    """Write `count` two-voxel plateaus (p and p + x) into the noise floor.

    Each plateau sits where the target is 0 within 4 voxels and is higher
    than everything else in that box, so both voxels survive the kernel-7
    max filter with exactly equal values and the tie-break keeps p. Its value
    v puts v / 2 (the ensemble mean with the zero target) above threshold.
    """
    d, h, w = floor.shape
    r = 4
    sites = []
    for _ in range(100 * count):
        if len(sites) == count:
            break
        z = int(rng.integers(r, d - r))
        y = int(rng.integers(r, h - r))
        x = int(rng.integers(r, w - r - 1))
        box = (slice(z - r, z + r + 1), slice(y - r, y + r + 1), slice(x - r, x + r + 2))
        if target[box].any() or any(max(abs(z - a), abs(y - b), abs(x - c)) <= 2 * r + 2
                                    for a, b, c in sites):
            continue
        v = np.float32(max(float(floor[box].max()), 2.0 * threshold) + 0.05)
        floor[z, y, x] = floor[z, y, x + 1] = v
        sites.append((z, y, x))
    return len(sites)


WORKLOADS = {w.name: w for w in (ToyChain, InferBEnsemble, OracleDense)}
