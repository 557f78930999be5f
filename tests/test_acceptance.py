"""Acceptance suite: ten end-to-end correctness criteria, each with a stated
tolerance and runtime budget. Every test prints one PASS/FAIL line (visible
even under pytest capture) so the suite doubles as a release checklist.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tomopick import cli, metric, nets, postproc, tiler
from tomopick.config import default_classes
from tomopick.coords import (
    ParticleClassSpec,
    PickRecord,
    PickSet,
    phys_to_pixel,
    pixel_to_phys,
    rasterize_heatmap,
)
from tomopick.losses import loss_balanced_mse, loss_weighted_mse
from tomopick.synthdata import SceneSpec, generate_tomogram
from tomopick.train import TrainConfig, train
from tomopick.volgrid import Heatmap, Volume3D

from helpers import fd_grad, optimal_match_tp


@contextmanager
def criterion(capsys, num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"FAIL criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} criterion {num}: {label} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert ok, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s >= {budget_s}s"


def test_criterion_1_window_plan_exactness(capsys):
    with criterion(capsys, 1, "window-plan exactness", 1.0):
        xy = tiler.plan_axis(656, 128, 48)
        assert len(xy) == 12
        assert [o for o, _ in xy] == list(range(0, 529, 48))
        assert not any(c for _, c in xy)

        z22 = tiler.plan_axis(184, 16, 8)
        assert len(z22) == 22
        assert not any(c for _, c in z22)

        z11 = tiler.plan_axis(184, 32, 16)
        assert len(z11) == 11
        assert sum(c for _, c in z11) == 1
        assert z11[-1] == (184 - 32, True)


def test_criterion_2_coordinate_round_trip(capsys):
    with criterion(capsys, 2, "coordinate round trip on a 64^3 grid", 10.0):
        spacing = 10.0
        # continuous round trip for every integer voxel index
        for i in range(64):
            phys = pixel_to_phys(i, spacing)
            assert abs(phys_to_pixel(phys, spacing) - (i + 0.5)) <= 1e-3 / spacing

        # rasterize-then-extract for a lattice of voxel-centered picks
        cls = ParticleClassSpec("blob", radius=40.0, sigma_vox=2.0,
                                detect_threshold=0.5, match_radius_tau=80.0)
        lattice = [8, 24, 40, 56]
        records = tuple(
            PickRecord(0, pixel_to_phys(x, spacing), pixel_to_phys(y, spacing),
                       pixel_to_phys(z, spacing))
            for z in lattice for y in lattice for x in lattice
        )
        picks = PickSet(records, spacing=spacing)
        hm = rasterize_heatmap(picks, [cls], (64, 64, 64))
        out = postproc.extract_picks(hm, [cls], kernel=7)
        assert len(out) == len(records)
        got = sorted((r.z, r.y, r.x) for r in out.records)
        want = sorted((r.z, r.y, r.x) for r in records)
        for g, w in zip(got, want):
            assert max(abs(a - b) for a, b in zip(g, w)) <= 1e-3


def test_criterion_3_loss_correctness(capsys):
    with criterion(capsys, 3, "loss hand cases and gradient checks", 30.0):
        shape = (4, 4, 4)
        n = math.prod(shape)
        zeros, ones = np.zeros(shape), np.ones(shape)
        eps = 1e-6

        loss, _ = loss_weighted_mse(ones, zeros, alpha=0.1)
        assert abs(loss - 0.1) <= 1e-9
        loss, _ = loss_weighted_mse(zeros, ones, alpha=0.1)
        assert abs(loss - 1.1) <= 1e-9
        loss, _ = loss_balanced_mse(zeros, ones, epsilon=eps)
        assert abs(loss - n / (n + eps)) <= 1e-9
        loss, _ = loss_balanced_mse(ones, zeros, epsilon=eps)
        assert abs(loss - n / (n + eps)) <= 1e-9

        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            p = rng.normal(size=shape)
            y = rng.random(shape)
            for loss_fn in (loss_weighted_mse, loss_balanced_mse):
                _, grad = loss_fn(p, y)
                fd = fd_grad(lambda q: loss_fn(q, y)[0], p)
                denom = max(np.abs(grad).max(), np.abs(fd).max(), 1e-12)
                worst = max(worst, np.abs(grad - fd).max() / denom)
        assert worst < 1e-5


def _fd_net_worst(cfg, samples_per_block=6):
    net = nets.build_net(cfg)
    n_params = sum(v.size for v in net.named_params().values())
    assert n_params <= 10_000, f"{n_params} params exceeds the 10k budget"
    x = np.random.default_rng(21).normal(size=(cfg.in_depth, cfg.window_hw, cfg.window_hw))
    g_up = np.random.default_rng(22).normal(
        size=(cfg.class_count, cfg.in_depth, cfg.window_hw, cfg.window_hw))

    net.zero_grads()
    net.forward(x)
    net.backward(g_up)
    analytic = {k: v.copy() for k, v in net.named_grads().items()}

    rng = np.random.default_rng(23)
    h = 1e-4
    worst = 0.0
    for name, p in net.named_params().items():
        count = min(samples_per_block, p.size)
        for i in rng.choice(p.size, size=count, replace=False):
            idx = np.unravel_index(i, p.shape)
            orig = p[idx]
            p[idx] = orig + h
            fp = float(np.sum(net.forward(x) * g_up))
            p[idx] = orig - h
            fm = float(np.sum(net.forward(x) * g_up))
            p[idx] = orig
            fd = (fp - fm) / (2 * h)
            a = analytic[name][idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    return worst


def test_criterion_4_network_gradient_check(capsys):
    with criterion(capsys, 4, "full-net finite-difference gradient check", 120.0):
        cfg_a = nets.NetConfig(variant="A", in_depth=8, window_hw=16, class_count=1,
                               widths=(3, 4, 5), seed=3, dtype="float64")
        cfg_b = nets.NetConfig(variant="B", in_depth=8, window_hw=16, class_count=1,
                               widths=(2, 3, 3, 4), decoder_width=4, seed=3,
                               dtype="float64")
        assert _fd_net_worst(cfg_a) < 1e-3
        assert _fd_net_worst(cfg_b) < 1e-3


def _scan_local_maxima(vol, kernel):
    """Independent oracle: neighborhood max and plateau dedup via explicit
    shifted-array scans, no scipy."""
    if kernel == 1:
        return sorted(
            (tuple(int(v) for v in idx), float(vol[tuple(idx)]))
            for idx in np.ndindex(vol.shape)
        )
    r = kernel // 2
    d, h, w = vol.shape
    lin = np.arange(vol.size, dtype=np.int64).reshape(vol.shape)
    pad_val = np.pad(vol.astype(np.float64), r, constant_values=-np.inf)
    pad_idx = np.pad(lin, r, constant_values=np.int64(vol.size))
    neigh_max = np.full(vol.shape, -np.inf)
    min_tie_idx = lin.copy()
    for dz in range(-r, r + 1):
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                sval = pad_val[r + dz : r + dz + d, r + dy : r + dy + h, r + dx : r + dx + w]
                sidx = pad_idx[r + dz : r + dz + d, r + dy : r + dy + h, r + dx : r + dx + w]
                neigh_max = np.maximum(neigh_max, sval)
                tie = sval == vol
                min_tie_idx = np.where(tie, np.minimum(min_tie_idx, sidx), min_tie_idx)
    peak = (vol == neigh_max) & (min_tie_idx == lin)
    return sorted(
        ((int(z), int(y), int(x)), float(vol[z, y, x]))
        for z, y, x in np.argwhere(peak)
    )


def test_criterion_5_nms_oracle_equivalence(capsys):
    with criterion(capsys, 5, "NMS equals brute-force neighborhood scan", 30.0):
        mismatches = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            vol = rng.random((32, 32, 32)).astype(np.float32)
            if seed % 2:
                vol = np.round(vol * 16) / 16  # force plateaus
            for kernel in (1, 3, 7):
                got = sorted(postproc.local_maxima(vol, kernel))
                want = _scan_local_maxima(vol, kernel)
                if got != want:
                    mismatches += 1
        assert mismatches == 0


def _ramp_volume(dims):
    # voxel values encode their own linear index, so a predictor can recover
    # the window origin from the first voxel (exact in f32 below 2^24)
    return Volume3D(np.arange(math.prod(dims), dtype=np.float32).reshape(dims),
                    spacing=10.0)


def test_criterion_6_aggregation_unbiasedness(capsys):
    with criterion(capsys, 6, "aggregation unbiasedness + worker determinism", 30.0):
        dims = (12, 20, 20)
        window, strides = (4, 8, 8), (2, 4, 4)
        vol = _ramp_volume(dims)
        plan = tiler.WindowPlan.build(dims, window, strides)
        mask = tiler.blend_mask(window)

        const = lambda win: np.full((2,) + win.shape, 0.625, dtype=np.float64)
        out = tiler.aggregate(const, vol, plan, mask)
        assert np.abs(out.data - 0.625).max() <= 1e-6

        oracle = np.random.default_rng(7).random((2,) + dims)

        def crop_oracle(win):
            z, y, x = np.unravel_index(int(win[0, 0, 0]), dims)
            return oracle[:, z : z + 4, y : y + 8, x : x + 8]

        out = tiler.aggregate(crop_oracle, vol, plan, mask)
        assert np.abs(out.data - oracle).max() <= 1e-6

        blobs = [tiler.aggregate(crop_oracle, vol, plan, mask, workers=k).data.tobytes()
                 for k in (1, 2, 8)]
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_7_metric_correctness(capsys):
    with criterion(capsys, 7, "F-beta hand cases + greedy-vs-optimal matching", 30.0):
        assert abs(metric.fbeta(8, 8, 0) - 8.5 / 9) <= 1e-12
        assert abs(metric.fbeta(8, 0, 8) - 8.5 / 16.5) <= 1e-12

        # random instances where each prediction has at most one candidate
        # ground truth within tau (gt separation > 2*tau), where greedy is
        # provably optimal
        for seed in range(200):
            rng = np.random.default_rng(seed)
            tau = float(rng.uniform(0.5, 2.0))
            step = 2.0 * tau + 0.5
            ng, npred = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            cells = rng.choice(6 ** 3, size=ng, replace=False)
            gts = [
                tuple(float(c * step + rng.uniform(-0.2, 0.2))
                      for c in np.unravel_index(cell, (6, 6, 6)))
                for cell in cells
            ]
            preds = []
            for _ in range(npred):
                if gts and rng.random() < 0.7:
                    base = gts[rng.integers(len(gts))]
                    preds.append(tuple(float(b + rng.uniform(-1.5 * tau, 1.5 * tau))
                                       for b in base))
                else:
                    preds.append(tuple(map(float, rng.uniform(0, 6 * step, 3))))
            m = metric.match_class(preds, gts, tau)
            assert m.tp == optimal_match_tp(preds, gts, tau)


def test_criterion_8_end_to_end_oracle_pipeline(capsys):
    with criterion(capsys, 8, "noiseless oracle pipeline scores exactly 1.0", 120.0):
        classes = list(default_classes())
        spec = SceneSpec(
            dims=(128, 128, 128),
            classes=classes,
            counts=(5,) * len(classes),
            noise_sigma=0.0,
            min_separation=280.0,
            seed=5,
        )
        volume, gt = generate_tomogram(spec)
        target = rasterize_heatmap(gt, classes, volume.dims)

        ramp = _ramp_volume(volume.dims)

        def crop_target(win):
            z, y, x = np.unravel_index(int(win[0, 0, 0]), volume.dims)
            return target.data[:, z : z + 16, y : y + 64, x : x + 64]

        plan = tiler.WindowPlan.build(volume.dims, (16, 64, 64), (8, 32, 32))
        blended = tiler.aggregate(crop_target, ramp, plan, tiler.blend_mask((16, 64, 64)))
        blended = Heatmap(blended.data, volume.spacing)

        preds = postproc.extract_picks(blended, classes, kernel=7)
        ev = metric.evaluate(preds, gt, classes)
        assert ev.weighted == 1.0
        for cs in ev.per_class:
            assert (cs.match.tp, cs.match.fp, cs.match.fn) == (5, 0, 0)


def _toy_class():
    return ParticleClassSpec("blob", radius=50.0, sigma_vox=2.5,
                             detect_threshold=0.25, match_radius_tau=100.0)


def _toy_scene(seed, cls):
    spec = SceneSpec(dims=(64, 64, 64), classes=[cls], counts=(4,),
                     noise_sigma=0.02, min_separation=150.0, seed=seed,
                     spacing=10.0)
    return generate_tomogram(spec)


def _window_dataset(scenes, cls, window=(16, 32, 32)):
    dataset = []
    for vol, picks in scenes:
        target = rasterize_heatmap(picks, [cls], vol.dims)
        plan = tiler.WindowPlan.build(vol.dims, window, window)
        background = None
        for z, y, x in plan.iter_origins():
            win = vol.values[z : z + window[0], y : y + window[1], x : x + window[2]]
            tgt = target.data[:, z : z + window[0], y : y + window[1], x : x + window[2]]
            if tgt.max() >= 0.5:
                dataset.append((win, tgt))
            elif background is None:
                background = (win, tgt)
        if background is not None:
            dataset.append(background)
    return dataset


def test_criterion_9_end_to_end_learned_pipeline(capsys):
    with criterion(capsys, 9, "train + evaluate learned pipeline", 1200.0):
        cls = _toy_class()
        train_scenes = [_toy_scene(s, cls) for s in range(32)]
        eval_scenes = [_toy_scene(1000 + s, cls) for s in range(8)]
        dataset = _window_dataset(train_scenes, cls)

        ncfg = nets.NetConfig(variant="A", in_depth=16, window_hw=32,
                              class_count=1, widths=(8, 16, 32, 32),
                              decoder_width=16, seed=0)
        net = nets.build_net(ncfg)
        tcfg = TrainConfig(epochs=8, warmup_epochs=1, batch_size=8, seed=0,
                           base_lr=1e-2, loss="balanced")
        result = train(dataset, net, tcfg)
        assert result.loss_history[-1] < 0.5 * result.loss_history[0]

        net.set_params(result.weights)
        tp = fp = fn = 0
        for vol, gt in eval_scenes:
            hm = tiler.tiled_inference([net.forward], vol, window_hw=32,
                                       xy_stride=16, pad_to=64, z_window=16,
                                       z_stride=8)
            picks = postproc.extract_picks(hm, [cls], kernel=7)
            ev = metric.evaluate(picks, gt, [cls])
            m = ev.per_class[0].match
            tp, fp, fn = tp + m.tp, fp + m.fp, fn + m.fn
        score = metric.weighted_score([metric.fbeta(tp, fp, fn)], [1.0])
        assert score >= 0.8, f"held-out weighted F-beta {score:.3f} < 0.8"


TOY_CFG = """\
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


def test_criterion_10_ablation_flags_produce_scores(tmp_path, capsys):
    with criterion(capsys, 10, "ablation flags execute and produce scores", 300.0):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CFG)
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for i in range(2):
            assert cli.run([
                "gen", "--config", str(cfg), "--seed", str(i),
                "--dims", "32", "64", "64", "--counts", "blob=4",
                "--noise-sigma", "0.02", "--min-separation", "150.0",
                "--out-volume", str(scenes / f"s{i}.vol"),
                "--out-picks", str(scenes / f"s{i}.picks"),
            ]) == 0

        ckpt = tmp_path / "model.wts"
        assert cli.run([
            "train", "--config", str(cfg), "--seed", "0",
            "--data", str(scenes), "--out", str(ckpt),
            "--variant", "A", "--window-hw", "32",
            "--epochs", "2", "--warmup-epochs", "1", "--lr", "1e-2",
            "--batch-size", "8",
        ]) == 0

        scores = {}
        for tag, extra in (
            ("coarse_stride", ["--xy-stride", "32"]),
            ("no_blend", ["--edge-floor", "1"]),
        ):
            hm = tmp_path / f"{tag}.hmc"
            assert cli.run([
                "infer", str(ckpt), "--config", str(cfg),
                "--volume", str(scenes / "s0.vol"), "--out", str(hm), *extra,
            ]) == 0
            picks = tmp_path / f"{tag}.picks"
            assert cli.run([
                "pick", "--config", str(cfg), "--heatmap", str(hm),
                "--out", str(picks),
            ]) == 0
            assert cli.run([
                "eval", "--config", str(cfg), "--pred", str(picks),
                "--gt", str(scenes / "s0.picks"),
            ]) == 0
            out = capsys.readouterr().out
            line = [l for l in out.splitlines() if l.startswith("weighted_score=")]
            assert line, "eval did not report a weighted score"
            scores[tag] = float(line[0].partition("=")[2])
        # both ablations must yield a finite score; no direction is asserted
        assert all(math.isfinite(v) for v in scores.values())
