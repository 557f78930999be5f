"""Overlapping sliding-window inference: window planning, linear blend-weight
masks, weighted aggregation, and cross-model ensembling.

Aggregation accumulates in 64-bit and always consumes window predictions in
plan order, so the output is bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .volgrid import Heatmap, Volume3D, pad_volume

DEFAULT_EDGE_FLOOR = 0.01

Predictor = Callable[[np.ndarray], np.ndarray]  # (d, h, w) window -> (C, d, h, w)


def plan_axis(length: int, window: int, stride: int, clamp_last: bool = True) -> list[tuple[int, bool]]:
    """Window origins 0, stride, ... plus a clamped final origin if needed.

    Returns (origin, clamped) pairs; the union of [origin, origin + window)
    covers [0, length) exactly when clamp_last is set.
    """
    if window > length:
        raise ValueError(f"window {window} exceeds axis length {length}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    origins = [(o, False) for o in range(0, length - window + 1, stride)]
    if clamp_last and origins[-1][0] != length - window:
        origins.append((length - window, True))
    return origins


@dataclass(frozen=True)
class WindowPlan:
    window: tuple[int, int, int]
    origins_z: tuple[tuple[int, bool], ...]
    origins_y: tuple[tuple[int, bool], ...]
    origins_x: tuple[tuple[int, bool], ...]

    @classmethod
    def build(cls, dims, window, strides, clamp_last=True) -> "WindowPlan":
        oz = tuple(plan_axis(dims[0], window[0], strides[0], clamp_last))
        oy = tuple(plan_axis(dims[1], window[1], strides[1], clamp_last))
        ox = tuple(plan_axis(dims[2], window[2], strides[2], clamp_last))
        return cls(tuple(window), oz, oy, ox)

    def iter_origins(self):
        for (z, _), (y, _), (x, _) in itertools.product(
            self.origins_z, self.origins_y, self.origins_x
        ):
            yield z, y, x

    @property
    def count(self) -> int:
        return len(self.origins_z) * len(self.origins_y) * len(self.origins_x)


def _axis_tent(length: int, edge_floor: float) -> np.ndarray:
    u = np.arange(length, dtype=np.float64)
    tent = 1.0 - np.abs(2.0 * (u + 0.5) - length) / length
    return edge_floor + (1.0 - edge_floor) * tent


@dataclass(frozen=True)
class BlendMask:
    """Separable tent weights, ~1 at the window center, edge_floor at edges."""

    weights: np.ndarray
    edge_floor: float


def blend_mask(window: tuple[int, int, int], edge_floor: float = DEFAULT_EDGE_FLOOR) -> BlendMask:
    if not 0.0 < edge_floor < 1.0:
        raise ValueError("edge_floor must be in (0, 1)")
    tz = _axis_tent(window[0], edge_floor)
    ty = _axis_tent(window[1], edge_floor)
    tx = _axis_tent(window[2], edge_floor)
    return BlendMask(tz[:, None, None] * ty[None, :, None] * tx[None, None, :], edge_floor)


def flat_mask(window: tuple[int, int, int]) -> BlendMask:
    """Uniform weights: the no-blend-weight ablation."""
    return BlendMask(np.ones(window, dtype=np.float64), 1.0)


def aggregate(
    predictor: Predictor,
    volume: Volume3D,
    plan: WindowPlan,
    mask: BlendMask,
    workers: int = 1,
) -> Heatmap:
    """Blend-weighted mean of window predictions over the whole volume.

    Workers evaluate windows in parallel; accumulation happens serially in
    plan order with float64 accumulators.
    """
    wz, wy, wx = plan.window
    if mask.weights.shape != plan.window:
        raise ValueError("mask shape does not match plan window")
    vol = volume.values
    origins = list(plan.iter_origins())

    def run(origin):
        z, y, x = origin
        pred = predictor(vol[z : z + wz, y : y + wy, x : x + wx])
        pred = np.asarray(pred)
        if pred.ndim != 4 or pred.shape[1:] != plan.window:
            raise ValueError(f"predictor output shape {pred.shape} does not match window")
        if not np.isfinite(pred).all():
            raise ValueError(f"predictor output for the window at origin {origin} is not finite")
        return pred

    num = None
    den = np.zeros(volume.dims, dtype=np.float64)
    m = mask.weights

    def consume(origin, pred):
        nonlocal num
        if num is None:
            num = np.zeros((pred.shape[0],) + volume.dims, dtype=np.float64)
        z, y, x = origin
        num[:, z : z + wz, y : y + wy, x : x + wx] += m[None] * pred
        den[z : z + wz, y : y + wy, x : x + wx] += m

    if workers <= 1:
        for origin in origins:
            consume(origin, run(origin))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for origin, pred in zip(origins, pool.map(run, origins)):
                consume(origin, pred)
    if den.min() <= 0.0:
        raise ValueError("window plan leaves voxels uncovered")
    return Heatmap((num / den[None]).astype(np.float32), volume.spacing)


def ensemble(heatmaps: Sequence[Heatmap]) -> Heatmap:
    """Voxelwise arithmetic mean across models."""
    if not heatmaps:
        raise ValueError("ensemble of zero heatmaps")
    shape = heatmaps[0].data.shape
    for hm in heatmaps[1:]:
        if hm.data.shape != shape:
            raise ValueError("ensemble inputs must share shape")
    acc = np.zeros(shape, dtype=np.float64)
    for hm in heatmaps:
        acc += hm.data
    return Heatmap((acc / len(heatmaps)).astype(np.float32), heatmaps[0].spacing)


def tiled_inference(
    predictors: Sequence[Predictor],
    volume: Volume3D,
    window_hw: int = 128,
    xy_stride: int = 48,
    pad_to: int = 656,
    z_window: int = 16,
    z_stride: int = 8,
    edge_floor: float = DEFAULT_EDGE_FLOOR,
    use_blend: bool = True,
    workers: int = 1,
) -> Heatmap:
    """Full-volume inference: reflect-pad XY to pad_to, slide windows, blend,
    crop back, then average across models."""
    d, h, w = volume.dims
    if pad_to < max(h, w):
        raise ValueError(f"pad_to {pad_to} smaller than volume XY {h}x{w}")
    py0, py1 = (pad_to - h) // 2, pad_to - h - (pad_to - h) // 2
    px0, px1 = (pad_to - w) // 2, pad_to - w - (pad_to - w) // 2
    padded = pad_volume(volume, (0, py0, px0), (0, py1, px1), mode="reflect")
    window = (z_window, window_hw, window_hw)
    plan = WindowPlan.build(padded.dims, window, (z_stride, xy_stride, xy_stride))
    mask = blend_mask(window, edge_floor) if use_blend else flat_mask(window)
    results = []
    for predictor in predictors:
        hm = aggregate(predictor, padded, plan, mask, workers=workers)
        results.append(
            Heatmap(hm.data[:, :, py0 : py0 + h, px0 : px0 + w].copy(), volume.spacing)
        )
    return ensemble(results)
