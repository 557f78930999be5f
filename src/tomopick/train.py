"""Training-set preparation and the training loop: warmup + cosine LR
schedule, decoupled-weight-decay Adam, and EMA weight tracking. Deterministic
given config seed."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import rasterize_heatmap
from .losses import LOSSES
from .nets import ToyNet
from .tiler import WindowPlan, centred_pads


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 25
    base_lr: float = 1e-3
    warmup_epochs: int = 4
    weight_decay: float = 0.0
    batch_size: int = 8
    ema_decay: float = 0.999
    seed: int = 0
    loss: str = "weighted"

    def __post_init__(self):
        if min(self.epochs, self.warmup_epochs) < 0 or self.batch_size < 1:
            raise ValueError("epochs and warmup_epochs must be >= 0 and batch_size >= 1, got "
                             f"{self.epochs}, {self.warmup_epochs} and {self.batch_size}")
        if not all(math.isfinite(v) and v >= 0 for v in (self.base_lr, self.weight_decay)):
            raise ValueError("lr and weight_decay must be finite and >= 0, "
                             f"got {self.base_lr} and {self.weight_decay}")
        if self.epochs > 0 and not self.warmup_epochs < self.epochs:
            raise ValueError("warmup_epochs must be < epochs")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in (0, 1)")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; options: {sorted(LOSSES)}")


def scene_windows(volume, picks, cfg, ncfg):
    """Cut a scene into non-overlapping windows with rasterized targets; keep
    windows that contain signal, plus one background window. An axis shorter
    than the window is reflect-padded up to it, volume and target alike, by
    the tiler's rule (`tiler.centred_pads`)."""
    window = (ncfg.in_depth, ncfg.window_hw, ncfg.window_hw)
    padded = tuple(map(max, volume.dims, window))
    pads = centred_pads(volume.dims, padded)
    values = np.pad(volume.values, pads, mode="reflect")
    target = rasterize_heatmap(picks, list(cfg.classes), volume.dims, offset=cfg.offset)
    target = np.pad(target.data, ((0, 0),) + pads, mode="reflect")
    plan = WindowPlan.build(padded, window, window)
    out = []
    background = None
    for z, y, x in plan.iter_origins():
        win = values[z : z + window[0], y : y + window[1], x : x + window[2]]
        tgt = target[:, z : z + window[0], y : y + window[1], x : x + window[2]]
        if tgt.max() >= 0.5:
            out.append((win, tgt))
        elif background is None:
            background = (win, tgt)
    if not out and background is not None:
        out.append(background)
    return out


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Linear warmup from 0 to base_lr, then cosine decay to ~0 at the end."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} out of range [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        return cfg.base_lr * epoch / cfg.warmup_epochs
    t = (epoch - cfg.warmup_epochs) / (cfg.epochs - cfg.warmup_epochs)
    return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * t))


def ema_update(ema_params: dict, params: dict, decay: float) -> None:
    """ema <- decay * ema + (1 - decay) * params, elementwise, in place."""
    for name, p in params.items():
        e = ema_params[name]
        if e.shape != p.shape:
            raise ValueError(f"{name}: shape mismatch {e.shape} vs {p.shape}")
        e *= decay
        e += (1.0 - decay) * p


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer over a param dict."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], cfg: TrainConfig):
        self.cfg = cfg
        self.params = params
        self.m = {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}
        self.v = {k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        for name, p in self.params.items():
            g = grads[name].astype(np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p -= (lr * (update + self.cfg.weight_decay * p.astype(np.float64))).astype(p.dtype)


@dataclass
class TrainResult:
    weights: dict[str, np.ndarray]
    ema_weights: dict[str, np.ndarray]
    loss_history: list[float]  # mean loss per epoch


def train(
    dataset: list[tuple[np.ndarray, np.ndarray]],
    net: ToyNet,
    cfg: TrainConfig,
) -> TrainResult:
    """Minibatch training over (window, target) pairs.

    Gradients are averaged over each minibatch; EMA weights are updated once
    per optimizer step. Raises TrainingDivergedError on a NaN loss.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    loss_fn = LOSSES[cfg.loss]
    params = net.named_params()  # AdamW updates these arrays in place
    ema = {k: v.copy() for k, v in params.items()}
    opt = AdamW(params, cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    history = []
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = rng.permutation(len(dataset))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            net.zero_grads()
            batch_loss = 0.0
            for idx in batch:
                window, target = dataset[idx]
                pred = net.forward(window)
                loss, gp = loss_fn(pred, target)
                batch_loss += loss
                net.backward((gp / len(batch)).astype(pred.dtype))
            batch_loss /= len(batch)
            if math.isnan(batch_loss) or math.isinf(batch_loss):
                raise TrainingDivergedError(
                    f"loss diverged at epoch {epoch} step {start // cfg.batch_size}: {batch_loss}"
                )
            opt.step(net.named_grads(), lr)
            ema_update(ema, params, cfg.ema_decay)
            epoch_losses.append(batch_loss)
        history.append(float(np.mean(epoch_losses)))
    return TrainResult({k: v.copy() for k, v in params.items()}, ema, history)
