"""Physical<->pixel coordinate conversion and Gaussian target rasterization.

Convention: converting a physical coordinate to the continuous pixel system
adds an offset of 1.0 (configurable to 0.5 for comparison); the inverse for an
integer voxel index i is (i + 0.5 - offset) * spacing, i.e. first move to the
voxel center, then remove the offset, then scale.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .volgrid import DEFAULT_SPACING, Heatmap

log = logging.getLogger(__name__)

DEFAULT_OFFSET = 1.0


@dataclass(frozen=True)
class ParticleClassSpec:
    """Per-class metadata: physical radius, target sigma, threshold, match radius, weight."""

    name: str
    radius: float
    sigma_vox: float
    detect_threshold: float = 0.5
    match_radius_tau: float = 60.0
    metric_weight: float = 1.0

    def __post_init__(self):
        # A name must survive a picks file's `,` fields and `strip()`, and a `--counts` `name=N` pair.
        if not self.name or self.name != self.name.strip() or "," in self.name or "=" in self.name:
            raise ValueError(f"class name {self.name!r} must be non-empty, without ',' or '=' "
                             "or leading or trailing whitespace")
        # NaN fails every comparison, so these bounds reject it too.
        for fld in ("radius", "sigma_vox", "match_radius_tau"):
            if not 0 < getattr(self, fld) < math.inf:
                raise ValueError(f"{self.name}: {fld} must be finite and > 0")
        if not 0.0 < self.detect_threshold < 1.0:
            raise ValueError(f"{self.name}: detect_threshold must be in (0, 1)")
        if not 0 <= self.metric_weight < math.inf:
            raise ValueError(f"{self.name}: metric_weight must be finite and >= 0")


@dataclass(frozen=True)
class PickRecord:
    class_id: int
    x: float
    y: float
    z: float
    score: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("pick coordinates must be finite")


@dataclass(frozen=True)
class PickSet:
    """Particle-center records in physical units, the pipeline's currency."""

    records: tuple[PickRecord, ...]
    spacing: float = DEFAULT_SPACING

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)


def phys_to_pixel(x_phys: float, spacing: float, offset: float = DEFAULT_OFFSET) -> float:
    """Physical coordinate -> continuous pixel coordinate (adds the offset)."""
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    return x_phys / spacing + offset


def pixel_to_phys(i: float, spacing: float, offset: float = DEFAULT_OFFSET) -> float:
    """Integer voxel index -> physical coordinate: (i + 0.5 - offset) * spacing."""
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    return (i + 0.5 - offset) * spacing


def rasterize_heatmap(
    picks: PickSet,
    classes: list[ParticleClassSpec],
    dims: tuple[int, int, int],
    offset: float = DEFAULT_OFFSET,
    truncation: float = 3.0,
) -> Heatmap:
    """Render per-class Gaussian targets, combining overlaps by per-voxel max.

    The channel value at voxel j is max over same-class picks of
    exp(-||(j + 0.5) - c||^2 / (2 sigma^2)) where c is the pick's continuous
    pixel coordinate; contributions beyond truncation*sigma are dropped.
    Picks outside the volume are skipped with a counted warning.
    """
    d, h, w = dims
    if min(dims) <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    data = np.zeros((len(classes), d, h, w), dtype=np.float32)
    skipped = 0
    for rec in picks.records:
        if not 0 <= rec.class_id < len(classes):
            raise ValueError(f"pick class id {rec.class_id} outside class table")
        cx = phys_to_pixel(rec.x, picks.spacing, offset)
        cy = phys_to_pixel(rec.y, picks.spacing, offset)
        cz = phys_to_pixel(rec.z, picks.spacing, offset)
        if not (0 <= cz < d and 0 <= cy < h and 0 <= cx < w):
            skipped += 1
            continue
        hit = gaussian_patch((cz, cy, cx), classes[rec.class_id].sigma_vox, truncation, dims)
        if hit is not None:
            region = data[rec.class_id][hit[0]]
            # A float64 max rounded once: rounding is monotone, so the float32 of the float64 max.
            np.maximum(region, hit[1], out=region)
    if skipped:
        log.warning("rasterize_heatmap: skipped %d out-of-volume pick(s)", skipped)
    return Heatmap(data, picks.spacing)


def _axis_window(c: float, reach: float, n: int) -> tuple[int, int]:
    # voxel centers j + 0.5 within `reach` of c, clipped to [0, n)
    lo = max(0, int(math.ceil(c - reach - 0.5)))
    hi = min(n - 1, int(math.floor(c + reach - 0.5)))
    return lo, hi


def gaussian_patch(center, sigma: float, truncation: float, dims):
    """exp(-||(j + 0.5) - center||^2 / (2 sigma^2)) on the voxels j of a dims
    grid within truncation * sigma of the continuous (z, y, x) center, zero
    beyond; returns (region slices, patch), or None if no voxel is in reach."""
    reach = truncation * sigma
    bounds = [_axis_window(c, reach, n) for c, n in zip(center, dims)]
    if any(lo > hi for lo, hi in bounds):
        return None
    dz, dy, dx = ((np.arange(lo, hi + 1, dtype=np.float64) + 0.5 - c) ** 2
                  for (lo, hi), c in zip(bounds, center))
    dist2 = dz[:, None, None] + dy[None, :, None] + dx[None, None, :]
    patch = np.exp(-dist2 / (2.0 * sigma * sigma))
    patch[dist2 > reach * reach] = 0.0
    return tuple(slice(lo, hi + 1) for lo, hi in bounds), patch


# --- picks text format -------------------------------------------------------
#
# One header line "class,x,y,z,score", then one comma-separated record per
# line; class is the class name, coordinates are physical units, score is
# blank for ground truth.


class PicksFormatError(ValueError):
    pass


def write_picks(picks: PickSet, classes: list[ParticleClassSpec], path) -> None:
    lines = ["class,x,y,z,score"]
    for rec in picks.records:
        score = "" if rec.score is None else repr(float(rec.score))
        lines.append(
            f"{classes[rec.class_id].name},{float(rec.x)!r},{float(rec.y)!r},{float(rec.z)!r},{score}"
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_picks(path, classes: list[ParticleClassSpec], spacing: float = DEFAULT_SPACING) -> PickSet:
    by_name = {c.name: i for i, c in enumerate(classes)}
    records = []
    with open(path) as f:
        header = f.readline().strip()
        if header != "class,x,y,z,score":
            raise PicksFormatError(f"{path}: bad header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise PicksFormatError(f"{path}:{lineno}: expected 5 fields")
            name, xs, ys, zs, ss = parts
            if name not in by_name:
                raise PicksFormatError(f"{path}:{lineno}: unknown class {name!r}")
            try:
                x, y, z = float(xs), float(ys), float(zs)
                score = None if ss == "" else float(ss)
            except ValueError as e:
                raise PicksFormatError(f"{path}:{lineno}: {e}") from e
            records.append(PickRecord(by_name[name], x, y, z, score))
    return PickSet(tuple(records), spacing)
