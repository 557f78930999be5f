"""Peak extraction: max-pool-equivalent local maxima, per-class thresholds,
and conversion of voxel peaks to physical pick coordinates."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.ndimage import maximum_filter

from .coords import DEFAULT_OFFSET, ParticleClassSpec, PickRecord, PickSet, pixel_to_phys
from .volgrid import Heatmap

DEFAULT_NMS_KERNEL = 7
_TIE_CHUNK = 4096  # candidates per vectorized tie scan


def local_maxima(
    channel: np.ndarray,
    kernel: int = DEFAULT_NMS_KERNEL,
    min_value: float | None = None,
) -> list[tuple[tuple[int, int, int], float]]:
    """All voxels equal to the max of their kernel^3 neighborhood (clipped to
    bounds), deduplicated on plateaus: among equal-valued voxels within its own
    neighborhood, only the lexicographically smallest (z, y, x) is a peak.

    min_value drops candidates below the threshold before plateau dedup; the
    surviving peaks are identical to filtering afterwards, but large flat
    background regions (e.g. exact zeros) never enter the dedup scan.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError("kernel must be odd and >= 1")
    channel = np.asarray(channel)
    # A radius of dim - 1 already reaches the whole axis from every voxel, so
    # clipping to it changes no neighborhood but bounds the filter and the
    # tie offsets for any kernel.
    r = [min(kernel // 2, n - 1) for n in channel.shape]
    # 'nearest' edge handling only duplicates in-bounds voxels, so the filter
    # max equals the clipped-neighborhood max.
    neigh_max = maximum_filter(channel, size=[2 * k + 1 for k in r], mode="nearest")
    candidate = channel == neigh_max
    if min_value is not None:
        candidate &= channel >= min_value
    cand = np.argwhere(candidate)
    values = channel[candidate]
    # A candidate is the max of its neighborhood, so it ties a voxel there iff
    # that voxel is >= it. It is dropped when such a voxel precedes it in
    # (z, y, x) order: scan the preceding half of the neighborhood, padded
    # with -inf outside the bounds.
    padded = np.pad(channel.astype(np.result_type(channel, np.float32), copy=False),
                    [(k, k) for k in r], constant_values=-np.inf)
    strides = np.array(padded.strides) // padded.itemsize
    offsets = np.array([o for o in itertools.product(*(range(-k, k + 1) for k in r)) if o < (0, 0, 0)],
                       dtype=np.intp).reshape(-1, 3) @ strides
    flat = padded.reshape(-1)
    centers = (cand + r) @ strides
    keep = np.ones(len(cand), dtype=bool)
    for i in range(0, len(cand), _TIE_CHUNK):
        block = slice(i, i + _TIE_CHUNK)
        ties = flat[centers[block, None] + offsets] >= values[block, None]
        keep[block] = ~ties.any(axis=1)
    return list(zip(map(tuple, cand[keep].tolist()), values[keep].tolist()))


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
