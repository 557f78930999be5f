"""Deterministic synthetic tomogram generator.

Randomness comes from a single numpy PCG64 stream seeded with SceneSpec.seed
(O'Neill's permuted congruential generator, the documented default numpy bit
generator), consumed in a fixed order: particle positions class by class, in
retry order, then one block of Gaussian noise. Identical spec + seed therefore
reproduces bit-identical output on any machine and thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import DEFAULT_OFFSET, ParticleClassSpec, PickRecord, PickSet, gaussian_patch, phys_to_pixel
from .volgrid import DEFAULT_SPACING, Volume3D

PLACEMENT_RETRIES = 1000


class PlacementError(RuntimeError):
    """Raised when rejection sampling cannot place a particle within budget."""


@dataclass(frozen=True)
class SceneSpec:
    dims: tuple[int, int, int]
    classes: tuple[ParticleClassSpec, ...]
    counts: tuple[int, ...]
    noise_sigma: float = 0.0
    min_separation: float = 0.0
    seed: int = 0
    spacing: float = DEFAULT_SPACING

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != len(self.classes):
            raise ValueError("counts must align with classes")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be >= 0")
        if not all(math.isfinite(v) and v >= 0 for v in (self.noise_sigma, self.min_separation)):
            raise ValueError(f"noise_sigma and min_separation must be finite and >= 0, got "
                             f"{self.noise_sigma} and {self.min_separation}")
        if min(self.dims) <= 0:
            raise ValueError("dims must be positive")


def generate_tomogram(spec: SceneSpec) -> tuple[Volume3D, PickSet]:
    """Render one soft Gaussian blob per pick plus i.i.d. noise.

    Blob model: isotropic Gaussian of sigma radius/(2*spacing) voxels,
    amplitude 1, truncated at 3 sigma, summed into the volume. Placement is
    rejection sampling with a fixed retry budget; picks honor min_separation
    pairwise and stay at least one class radius inside the volume bounds.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    placed: list[PickRecord] = []
    placed_xyz: list[tuple[float, float, float]] = []
    for class_id, (cls, count) in enumerate(zip(spec.classes, spec.counts)):
        margin = cls.radius / spec.spacing  # voxels
        for _ in range(count):
            pos = _place_one(rng, spec, class_id, margin, placed_xyz)
            placed.append(pos)
            placed_xyz.append((pos.x, pos.y, pos.z))

    grid = np.zeros(spec.dims, dtype=np.float64)
    for rec in placed:
        sigma_blob = spec.classes[rec.class_id].radius / (2.0 * spec.spacing)
        center = tuple(phys_to_pixel(v, spec.spacing) for v in (rec.z, rec.y, rec.x))
        hit = gaussian_patch(center, sigma_blob, 3.0, spec.dims)
        if hit is not None:
            grid[hit[0]] += hit[1]
    if spec.noise_sigma > 0:
        grid += rng.normal(0.0, spec.noise_sigma, size=spec.dims)
    return Volume3D(grid.astype(np.float32), spec.spacing), PickSet(tuple(placed), spec.spacing)


def _place_one(rng, spec: SceneSpec, class_id: int, margin: float, placed_xyz) -> PickRecord:
    d, h, w = spec.dims
    los = (margin, margin, margin)
    his = (w - margin, h - margin, d - margin)  # continuous pixel coords per x, y, z
    if any(lo >= hi for lo, hi in zip(los, his)):
        raise PlacementError(
            f"class {spec.classes[class_id].name}: radius leaves no interior in dims {spec.dims}"
        )
    for _ in range(PLACEMENT_RETRIES):
        px, py, pz = (rng.uniform(lo, hi) for lo, hi in zip(los, his))
        # physical coordinates via the inverse of the continuous pixel map
        x = (px - DEFAULT_OFFSET) * spec.spacing
        y = (py - DEFAULT_OFFSET) * spec.spacing
        z = (pz - DEFAULT_OFFSET) * spec.spacing
        # A distance is never negative, so separation 0 accepts without the scan.
        if not spec.min_separation or all(
            math.dist((x, y, z), other) >= spec.min_separation for other in placed_xyz
        ):
            return PickRecord(class_id, x, y, z)
    raise PlacementError(
        f"could not place a {spec.classes[class_id].name} particle "
        f"after {PLACEMENT_RETRIES} retries"
    )
