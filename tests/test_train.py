"""Schedule, EMA, optimizer determinism, and toy-task convergence."""

import math

import numpy as np
import pytest

from tomopick import nets
from tomopick.config import PipelineConfig
from tomopick.coords import ParticleClassSpec, PickRecord, PickSet, rasterize_heatmap
from tomopick.synthdata import SceneSpec, generate_tomogram
from tomopick.train import (
    TrainConfig,
    TrainingDivergedError,
    ema_update,
    lr_at,
    scene_windows,
    train,
)
from tomopick.volgrid import Volume3D


def test_lr_warmup_midpoint():
    cfg = TrainConfig(epochs=20, base_lr=1e-3, warmup_epochs=4)
    assert lr_at(cfg, 2) == pytest.approx(5e-4)


def test_lr_at_end_of_warmup_is_base():
    cfg = TrainConfig(epochs=20, base_lr=1e-3, warmup_epochs=4)
    assert lr_at(cfg, 4) == 1e-3


def test_lr_cosine_midpoint_is_half_base():
    cfg = TrainConfig(epochs=20, base_lr=1e-3, warmup_epochs=4)
    assert lr_at(cfg, 12) == pytest.approx(5e-4)  # t = 0.5, cos(pi/2) = 0


def test_lr_epoch_out_of_range():
    cfg = TrainConfig(epochs=10, warmup_epochs=2)
    with pytest.raises(ValueError):
        lr_at(cfg, 10)
    with pytest.raises(ValueError):
        lr_at(cfg, -1)


def test_ema_fixed_point():
    p = {"w": np.array([1.0, 2.0])}
    e = {"w": np.array([1.0, 2.0])}
    ema_update(e, p, 0.999)
    np.testing.assert_allclose(e["w"], p["w"])


def test_ema_single_step():
    e = {"w": np.zeros(3)}
    ema_update(e, {"w": np.ones(3)}, 0.999)
    np.testing.assert_allclose(e["w"], 0.001)


def test_ema_decay_zero_copies_params():
    e = {"w": np.full(3, 5.0)}
    ema_update(e, {"w": np.full(3, -1.0)}, 0.0)
    np.testing.assert_allclose(e["w"], -1.0)


def test_ema_shape_mismatch():
    with pytest.raises(ValueError):
        ema_update({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=4, warmup_epochs=4)
    with pytest.raises(ValueError):
        TrainConfig(ema_decay=1.0)
    with pytest.raises(ValueError):
        TrainConfig(loss="focal")


def _toy_dataset(n_windows=8, depth=8, hw=16, seed=0):
    cls = ParticleClassSpec("a", radius=40.0, sigma_vox=2.5)
    dataset = []
    for i in range(n_windows):
        spec = SceneSpec((depth, hw, hw), (cls,), (1,), noise_sigma=0.02, seed=seed + i)
        vol, picks = generate_tomogram(spec)
        target = rasterize_heatmap(picks, [cls], vol.dims)
        dataset.append((vol.values, target.data))
    return dataset


def _toy_net(seed=1):
    cfg = nets.NetConfig(variant="A", in_depth=8, window_hw=16, class_count=1,
                         widths=(4, 6, 8), seed=seed)
    return nets.build_net(cfg)


def test_zero_epochs_returns_initialization():
    net = _toy_net()
    init = {k: v.copy() for k, v in net.named_params().items()}
    result = train(_toy_dataset(2), net, TrainConfig(epochs=0, warmup_epochs=0, batch_size=2))
    for k, v in result.weights.items():
        np.testing.assert_array_equal(v, init[k])
    assert result.loss_history == []


def test_same_seed_identical_history():
    data = _toy_dataset(4)
    cfg = TrainConfig(epochs=3, warmup_epochs=1, batch_size=2, seed=7)
    h1 = train(data, _toy_net(), cfg).loss_history
    h2 = train(data, _toy_net(), cfg).loss_history
    assert h1 == h2


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], _toy_net(), TrainConfig(epochs=1, warmup_epochs=0))


def test_loss_decreases_on_toy_task():
    data = _toy_dataset(8)
    cfg = TrainConfig(epochs=12, warmup_epochs=2, batch_size=4, seed=3, base_lr=1e-2)
    result = train(data, _toy_net(), cfg)
    assert result.loss_history[-1] < 0.5 * result.loss_history[0]


def test_ema_weights_track_training():
    data = _toy_dataset(4)
    net = _toy_net()
    result = train(data, net, TrainConfig(epochs=3, warmup_epochs=1, batch_size=2, ema_decay=0.5))
    # EMA must differ from raw weights but stay close to the trajectory
    moved = any(
        not np.array_equal(result.ema_weights[k], result.weights[k])
        for k in result.weights
    )
    assert moved


def test_nan_divergence_aborts():
    data = _toy_dataset(2)
    bad = [(w * np.float32(1e30), t) for w, t in data]
    cfg = TrainConfig(epochs=3, warmup_epochs=1, base_lr=1e3, batch_size=2)
    with pytest.raises((TrainingDivergedError, FloatingPointError, OverflowError)):
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(bad, _toy_net(), cfg)
            # force the check if it somehow survived
            if any(math.isnan(x) for x in result.loss_history):
                raise TrainingDivergedError("nan history")


def test_scene_windows_keeps_one_background_window_only_when_none_holds_signal():
    """Without a target of 0.5 or more, a scene still gives training its first
    window as background; with one, only the windows holding signal are kept."""
    cfg = PipelineConfig(spacing=10.0, classes=(ParticleClassSpec("a", radius=40.0, sigma_vox=2.0),))
    ncfg = nets.NetConfig(in_depth=8, window_hw=16)
    values = np.arange(16 * 32 * 32, dtype=np.float32).reshape(16, 32, 32)
    volume = Volume3D(values, spacing=10.0)

    ((win, tgt),) = scene_windows(volume, PickSet((), 10.0), cfg, ncfg)
    np.testing.assert_array_equal(win, values[:8, :16, :16])
    assert tgt.shape == (1, 8, 16, 16) and not tgt.any()

    # Voxel (12, 24, 24)'s centre, in the window at origin (8, 16, 16).
    pick = PickRecord(0, x=235.0, y=235.0, z=115.0)
    ((win, tgt),) = scene_windows(volume, PickSet((pick,), 10.0), cfg, ncfg)
    np.testing.assert_array_equal(win, values[8:, 16:, 16:])
    assert tgt.max() >= 0.5
    target = rasterize_heatmap(PickSet((pick,), 10.0), list(cfg.classes), volume.dims, offset=cfg.offset)
    np.testing.assert_array_equal(tgt, target.data[:, 8:, 16:, 16:])


def test_scene_windows_reflect_pad_axes_shorter_than_the_window():
    """A 5x10x16 scene under an 8x16x16 window is one window: the volume and
    the target reflect-padded up to it with centred pads, the odd voxel
    after, as the tiler pads a volume for inference."""
    cfg = PipelineConfig(spacing=10.0, classes=(ParticleClassSpec("a", radius=40.0, sigma_vox=2.0),))
    ncfg = nets.NetConfig(in_depth=8, window_hw=16)
    values = np.random.default_rng(3).normal(size=(5, 10, 16)).astype(np.float32)
    volume = Volume3D(values, spacing=10.0)
    picks = PickSet((PickRecord(0, x=85.0, y=45.0, z=25.0),), 10.0)
    ((win, tgt),) = scene_windows(volume, picks, cfg, ncfg)
    pads = ((1, 2), (3, 3), (0, 0))
    np.testing.assert_array_equal(win, np.pad(values, pads, mode="reflect"))
    target = rasterize_heatmap(picks, list(cfg.classes), volume.dims, offset=cfg.offset).data
    np.testing.assert_array_equal(tgt, np.pad(target, ((0, 0),) + pads, mode="reflect"))
    assert tgt.max() >= 0.5
