"""Peak extraction: max-pool-equivalent local maxima, per-class thresholds,
and conversion of voxel peaks to physical pick coordinates."""

from __future__ import annotations

import numpy as np

from .coords import DEFAULT_OFFSET, ParticleClassSpec, PickRecord, PickSet, pixel_to_phys
from .volgrid import Heatmap

DEFAULT_NMS_KERNEL = 7


def maximum_filter(a: np.ndarray, size, mode: str = "nearest") -> np.ndarray:
    """`scipy.ndimage.maximum_filter(a, size, mode="nearest")` for odd sizes,
    as a new C-contiguous array: per axis, with radius r = min(size // 2,
    n - 1), the previous result is copied once and each shift 1..r is folded
    in from both sides. `np.fmax` skips NaN, so a NaN never spreads to its
    neighbours' max (scipy's result near a NaN depends on where it sits)."""
    if mode != "nearest":
        raise ValueError("only mode='nearest' is supported")
    out = a
    for axis, k in enumerate(np.broadcast_to(size, (a.ndim,))):
        if k < 1 or k % 2 == 0:
            raise ValueError("filter sizes must be odd and >= 1")
        r = min(k // 2, a.shape[axis] - 1)
        if r > 0:
            src, out = np.moveaxis(out, axis, 0), out.copy()
            dst = np.moveaxis(out, axis, 0)
            for d in range(1, r + 1):
                np.fmax(dst[d:], src[:-d], out=dst[d:])
                np.fmax(dst[:-d], src[d:], out=dst[:-d])
    return a.copy() if out is a else out


def local_maxima(
    channel: np.ndarray,
    kernel: int = DEFAULT_NMS_KERNEL,
    min_value: float | None = None,
) -> list[tuple[tuple[int, int, int], float]]:
    """All voxels equal to the max of their kernel^3 neighborhood (clipped to
    bounds), in (z, y, x) order. On a plateau only the lexicographically
    smallest voxel is a peak: a candidate, being the max of its neighborhood,
    is dropped when a voxel that precedes it there is >= it.

    Two `maximum_filter` calls (numpy shift-max passes) give the neighborhood
    max: each plane's (y, x) square, then along z. The cube max must be the
    last `maximum_filter` result, as the benchmark's tracer counts candidates
    from it. On noise the peak is 2.25 channel sizes: the two filter outputs
    and the candidate mask. A NaN voxel is never a peak and never suppresses
    a neighbour: the filters' `fmax` skips it, and it equals nothing, so it is
    neither a candidate nor a tie of one. The preceding half is
    probed by one gather per offset for the candidates left: the square max
    of each earlier plane, then earlier rows (any dx) and earlier x in the
    candidate's row. Probes outside the channel are masked, so no padded
    copy is made; a probe reads the plane, row and column it needs from the
    flat index, so no (z, y, x) copy of the candidates is made either.

    min_value drops candidates below the threshold before plateau dedup; the
    surviving peaks are identical to filtering afterwards, but large flat
    background regions (e.g. exact zeros) never enter the dedup scan.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError("kernel must be odd and >= 1")
    channel = np.ascontiguousarray(channel)  # so each reshape(-1) is a view
    _, h, w = channel.shape
    # A radius of dim - 1 already reaches the whole axis, so clipping to it
    # bounds the work for any kernel.
    rz, ry, rx = (min(kernel // 2, n - 1) for n in channel.shape)
    plane_max = maximum_filter(channel, size=(1, 2 * ry + 1, 2 * rx + 1), mode="nearest")
    candidate = channel == maximum_filter(plane_max, size=(2 * rz + 1, 1, 1), mode="nearest")
    if min_value is not None:
        candidate &= channel >= min_value
    idx = np.flatnonzero(candidate)
    del candidate
    values = channel.reshape(-1)[idx]
    # (source, dz, dy, dx), nearest plane first: on a plateau it drops most.
    probes = [(plane_max, -k, 0, 0) for k in range(1, rz + 1)] + [
        (channel, 0, dy, dx) for dy in range(-ry, 1) for dx in range(-rx, rx + 1) if (dy, dx) < (0, 0)]
    for src, dz, dy, dx in probes:
        if dz:  # an earlier plane
            inside = idx >= -dz * h * w
        else:  # the same plane: row and column from the flat index
            inside = (idx % (h * w) >= -dy * w) & (idx % w >= -dx) & (idx % w < w - dx)
        tie = inside & (src.reshape(-1)[np.where(inside, idx + (dz * h + dy) * w + dx, 0)] >= values)
        idx, values = idx[~tie], values[~tie]
    z, y, x = np.unravel_index(idx, channel.shape)
    return list(zip(zip(z.tolist(), y.tolist(), x.tolist()), values.tolist()))


def extract_picks(
    heatmap: Heatmap,
    classes: list[ParticleClassSpec],
    kernel: int = DEFAULT_NMS_KERNEL,
    offset: float = DEFAULT_OFFSET,
) -> PickSet:
    """Per-class NMS + threshold, then voxel index -> physical coordinates."""
    if heatmap.classes != len(classes):
        raise ValueError(
            f"heatmap has {heatmap.classes} channels but {len(classes)} classes configured"
        )
    records = []
    for class_id, cls in enumerate(classes):
        maxima = local_maxima(heatmap.data[class_id], kernel, min_value=cls.detect_threshold)
        for (z, y, x), score in maxima:
            records.append(
                PickRecord(
                    class_id,
                    pixel_to_phys(x, heatmap.spacing, offset),
                    pixel_to_phys(y, heatmap.spacing, offset),
                    pixel_to_phys(z, heatmap.spacing, offset),
                    score,
                )
            )
    return PickSet(tuple(records), heatmap.spacing)
