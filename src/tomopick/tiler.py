"""Overlapping sliding-window inference: window planning, linear blend-weight
masks, weighted aggregation, and cross-model ensembling.

Aggregation accumulates in 64-bit and always consumes window predictions in
plan order, so the output is bit-identical for any worker count.

Aggregation streams along z. The plan is z-major, so once the z origin moves
past a row, no later window adds to it. The float64 numerator and denominator
are therefore held only for a slab of rows, z_window plus the largest z gap
deep: when the z origin moves on, the finished rows are divided straight into
the float32 output and the slab slides down. Only the kept (z, y, x) region
is written, and an ensemble's last model folds the other models' heatmaps in at
each flush. Peak memory for N models is max(1, N - 1) float32 heatmaps of the
kept region plus a slab of O(C * (z_window + z_stride) * H * W), and the
plan's coverage of the volume is checked before the first window runs.
"""

from __future__ import annotations

import collections
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .volgrid import Heatmap, Volume3D

DEFAULT_EDGE_FLOOR = 0.01

Predictor = Callable[[np.ndarray], np.ndarray]  # (d, h, w) window -> (C, d, h, w)


def plan_axis(length: int, window: int, stride: int) -> list[tuple[int, bool]]:
    """Window origins 0, stride, ... plus a clamped final origin if needed.

    Returns (origin, clamped) pairs; with stride <= window, the union of
    [origin, origin + window) covers [0, length).
    """
    if window > length:
        raise ValueError(f"window {window} exceeds axis length {length}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    origins = [(o, False) for o in range(0, length - window + 1, stride)]
    if origins[-1][0] != length - window:
        origins.append((length - window, True))
    return origins


@dataclass(frozen=True)
class WindowPlan:
    window: tuple[int, int, int]
    origins_z: tuple[tuple[int, bool], ...]
    origins_y: tuple[tuple[int, bool], ...]
    origins_x: tuple[tuple[int, bool], ...]

    @classmethod
    def build(cls, dims, window, strides) -> "WindowPlan":
        return cls(tuple(window), *(tuple(plan_axis(*axis)) for axis in zip(dims, window, strides)))

    def iter_origins(self):
        for (z, _), (y, _), (x, _) in itertools.product(
            self.origins_z, self.origins_y, self.origins_x
        ):
            yield z, y, x

    def gaps(self, dims) -> list[tuple[str, int, int]]:
        """(axis, start, stop) for each half-open range of a dims volume that no window covers."""
        found = []
        for axis, origins, n, length in zip("zyx", (self.origins_z, self.origins_y, self.origins_x),
                                            self.window, dims):
            end = 0
            for o in sorted(o for o, _ in origins):
                if o > end:
                    found.append((axis, end, o))
                end = max(end, o + n)
            found += [(axis, end, length)] if end < length else []
        return found


def padded_plan(dims, window_hw, xy_stride, pad_to, z_window, z_stride):
    """(plan, pads): the plan `tiled_inference` runs over a volume of `dims` padded to
    (max(D, z_window), pad_to, pad_to), and each axis's centred (before, after) reflect
    pad, the odd voxel after. `infer` (at a checkpoint's window) and `plan` (at the
    config's) both take their pads from here."""
    if pad_to < max(dims[1:]):
        raise ValueError(f"pad_to {pad_to} smaller than volume XY {dims[1]}x{dims[2]}")
    padded = (max(dims[0], z_window), pad_to, pad_to)
    plan = WindowPlan.build(padded, (z_window, window_hw, window_hw), (z_stride, xy_stride, xy_stride))
    return plan, centred_pads(dims, padded)


def centred_pads(dims, padded):
    """Each axis's centred (before, after) pad from `dims` to `padded`, the odd voxel after."""
    return tuple(((m - n) // 2, m - n - (m - n) // 2) for n, m in zip(dims, padded))


def _axis_tent(length: int, edge_floor: float) -> np.ndarray:
    u = np.arange(length, dtype=np.float64)
    tent = 1.0 - np.abs(2.0 * (u + 0.5) - length) / length
    return edge_floor + (1.0 - edge_floor) * tent


def blend_mask(window: tuple[int, int, int], edge_floor: float = DEFAULT_EDGE_FLOOR) -> np.ndarray:
    """Separable tent weights, ~1 at the window center and edge_floor at the
    edges; edge_floor 1 gives uniform weights (the uniform-weight ablation)."""
    if not 0.0 < edge_floor <= 1.0:
        raise ValueError("edge_floor must be in (0, 1]")
    tz, ty, tx = (_axis_tent(n, edge_floor) for n in window)
    return tz[:, None, None] * ty[None, :, None] * tx[None, None, :]


def aggregate(
    predictor: Predictor,
    volume: Volume3D,
    plan: WindowPlan,
    mask: np.ndarray,
    workers: int = 1,
    *, members: Sequence[Heatmap] = (), keep: tuple[slice, slice, slice] = (slice(None),) * 3,
) -> Heatmap:
    """Blend-weighted mean of window predictions over the whole volume, kept
    for the `keep` (z, y, x) slices of step 1: each flush writes only its kept rows'
    kept (y, x) region, so padding is dropped without a cropped copy.

    Workers evaluate windows in parallel; accumulation happens serially in
    plan order into float64 slab accumulators that stream along z. The result
    is `ensemble(members + [this model])` bit for bit, written over members[0]
    if given (earlier models' heatmaps of the kept region).
    """
    wz, wy, wx = plan.window
    if mask.shape != plan.window:
        raise ValueError("mask shape does not match plan window")
    d, h, w = volume.dims
    zs = [z for z, _ in plan.origins_z]
    if zs != sorted(zs):
        raise ValueError("window plan z origins are not in increasing order")
    if plan.gaps(volume.dims):
        raise ValueError("window plan leaves voxels uncovered")
    vol = volume.values
    origins = list(plan.iter_origins())
    kz, (ys, xs) = range(d)[keep[0]], keep[1:]

    def run(origin):
        z, y, x = origin
        pred = predictor(vol[z : z + wz, y : y + wy, x : x + wx])
        pred = np.asarray(pred)
        if pred.ndim != 4 or pred.shape[1:] != plan.window:
            raise ValueError(f"predictor output shape {pred.shape} does not match window")
        if not np.isfinite(pred).all():
            raise ValueError(f"predictor output for the window at origin {origin} is not finite")
        return pred

    # The slab holds rows [base, base + depth) of the volume.
    depth = min(d, wz + max((b - a for a, b in zip(zs, zs[1:])), default=0))
    den = np.zeros((depth, h, w), dtype=np.float64)
    num = prod = out = quot = None
    base = 0

    def flush(rows):
        nonlocal base
        if den[:rows].min() <= 0.0:
            raise ValueError("window plan leaves voxels uncovered")
        # `ensemble`'s arithmetic on the kept region, this model's float32
        # quotient last; one model divides by 1, which is exact. The flushed
        # numerator rows hold the sum: the slide below overwrites them. Rows
        # [lo, hi) are the flushed rows that `keep` holds.
        lo, hi = (min(max(r, kz.start), kz.stop) for r in (base, base + rows))
        slab, kept = slice(lo - base, hi - base), slice(lo - kz.start, hi - kz.start)
        for c, acc in enumerate(num[:, slab, ys, xs]):
            np.divide(acc, den[slab, ys, xs], out=quot[: hi - lo], casting="same_kind")
            parts = [hm.data[c, kept] for hm in members] + [quot[: hi - lo]]
            acc[...] = parts[0]
            for part in parts[1:]:
                acc += part
            np.divide(acc, len(parts), out=out[c, kept], casting="same_kind")
        # Slide in chunks of `rows` planes, which never overlap, one 3-d array
        # at a time: numpy cannot prove that 4-d views of num do not overlap,
        # and would copy each chunk. The top `rows` planes keep their old
        # values, which are still zero: no window has reached them, as the
        # slab is z_window plus the largest z gap deep.
        for i in range(0, depth - rows, rows):
            k = min(rows, depth - rows - i)
            for part in (*num, den):
                part[i : i + k] = part[i + rows : i + rows + k]
        base += rows

    def consume(origin, pred):
        nonlocal num, prod, out, quot
        if num is None:
            shape = (pred.shape[0], len(kz), *den[0, ys, xs].shape)
            if any(hm.data.shape != shape for hm in members):
                raise ValueError("ensemble inputs must share shape")
            num = np.zeros((pred.shape[0], depth, h, w), dtype=np.float64)
            prod = np.empty(pred.shape[1:], dtype=np.float64)
            out = members[0].data if members else np.empty(shape, dtype=np.float32)
            quot = np.empty((depth, *shape[2:]), dtype=np.float32)
        z, y, x = origin
        if z > base:
            flush(z - base)
        zb = z - base
        for c in range(pred.shape[0]):
            np.multiply(mask, pred[c], out=prod)
            num[c, zb : zb + wz, y : y + wy, x : x + wx] += prod
        den[zb : zb + wz, y : y + wy, x : x + wx] += mask

    if workers <= 1:
        for origin in origins:
            consume(origin, run(origin))
    else:
        # At most 2 * workers windows are in flight, so predictions cannot
        # pile up ahead of the serial consumer.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = collections.deque()
            for origin in origins:
                pending.append((origin, pool.submit(run, origin)))
                if len(pending) == 2 * workers:
                    done, future = pending.popleft()
                    consume(done, future.result())
            for done, future in pending:
                consume(done, future.result())
    flush(d - base)
    return Heatmap(out, volume.spacing)


def ensemble(heatmaps: Sequence[Heatmap]) -> Heatmap:
    """Voxelwise arithmetic mean across models, one channel at a time: the
    arithmetic that `aggregate` folds into its flushes when given members."""
    if not heatmaps:
        raise ValueError("ensemble of zero heatmaps")
    shape = heatmaps[0].data.shape
    for hm in heatmaps[1:]:
        if hm.data.shape != shape:
            raise ValueError("ensemble inputs must share shape")
    out = np.empty(shape, dtype=np.float32)
    acc = np.empty(shape[1:], dtype=np.float64)
    for c in range(shape[0]):
        acc[...] = heatmaps[0].data[c]
        for hm in heatmaps[1:]:
            acc += hm.data[c]
        np.divide(acc, len(heatmaps), out=out[c], casting="same_kind")
    return Heatmap(out, heatmaps[0].spacing)


def tiled_inference(
    predictors: Sequence[Predictor],
    volume: Volume3D,
    window_hw: int,
    xy_stride: int,
    pad_to: int,
    z_window: int,
    z_stride: int,
    edge_floor: float = DEFAULT_EDGE_FLOOR,
    workers: int = 1,
) -> Heatmap:
    """Full-volume inference: reflect-pad by `padded_plan`'s pads, mirroring without
    repeating the edge voxel (a pad longer than its axis reflects again), slide
    windows, and blend and average across models into the unpadded region only."""
    plan, pads = padded_plan(volume.dims, window_hw, xy_stride, pad_to, z_window, z_stride)
    padded = Volume3D(np.pad(volume.values, pads, mode="reflect"), volume.spacing)
    mask = blend_mask(plan.window, edge_floor)
    keep = tuple(slice(p, p + n) for (p, _), n in zip(pads, volume.dims))
    members = [aggregate(p, padded, plan, mask, workers=workers, keep=keep) for p in predictors[:-1]]
    return aggregate(predictors[-1], padded, plan, mask, workers=workers, members=members, keep=keep)
