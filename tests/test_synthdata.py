"""Synthetic scene generator: determinism, placement, recoverability."""

import itertools
import math

import numpy as np
import pytest

from tomopick.coords import ParticleClassSpec, phys_to_pixel
from tomopick.synthdata import PlacementError, SceneSpec, generate_tomogram

SP = 10.012


def two_classes():
    return (
        ParticleClassSpec("a", radius=40.0, sigma_vox=2.0),
        ParticleClassSpec("b", radius=60.0, sigma_vox=3.0),
    )


def test_same_seed_is_bit_identical():
    spec = SceneSpec((24, 24, 24), two_classes(), (3, 2), noise_sigma=0.1,
                     min_separation=50.0, seed=42)
    v1, p1 = generate_tomogram(spec)
    v2, p2 = generate_tomogram(spec)
    assert v1 == v2
    assert p1.records == p2.records


def test_different_seeds_differ():
    base = dict(dims=(24, 24, 24), classes=two_classes(), counts=(3, 2),
                noise_sigma=0.1, min_separation=50.0)
    v1, _ = generate_tomogram(SceneSpec(seed=1, **base))
    v2, _ = generate_tomogram(SceneSpec(seed=2, **base))
    assert v1 != v2


def test_noiseless_argmax_near_pick():
    spec = SceneSpec((32, 32, 32), two_classes(), (1, 0), noise_sigma=0.0, seed=5)
    vol, picks = generate_tomogram(spec)
    rec = picks.records[0]
    z, y, x = np.unravel_index(vol.values.argmax(), vol.dims)
    cz = phys_to_pixel(rec.z, SP)
    cy = phys_to_pixel(rec.y, SP)
    cx = phys_to_pixel(rec.x, SP)
    assert abs(z + 0.5 - cz) <= 0.5
    assert abs(y + 0.5 - cy) <= 0.5
    assert abs(x + 0.5 - cx) <= 0.5


def test_count_bookkeeping():
    spec = SceneSpec((32, 32, 32), two_classes(), (3, 2), seed=9, min_separation=30.0)
    _, picks = generate_tomogram(spec)
    assert len(picks) == 5
    assert [r.class_id for r in picks.records].count(0) == 3
    assert [r.class_id for r in picks.records].count(1) == 2


def test_min_separation_pairwise():
    spec = SceneSpec((40, 40, 40), two_classes(), (4, 4), seed=11, min_separation=60.0)
    _, picks = generate_tomogram(spec)
    pts = [(r.x, r.y, r.z) for r in picks.records]
    for p, q in itertools.combinations(pts, 2):
        assert math.dist(p, q) >= 60.0


def test_zero_separation_places_as_a_tiny_one_does():
    """Separation 0 skips the pairwise scan; the random stream, the picks and
    the volume are those of a separation no two picks come near."""
    base = dict(dims=(24, 32, 32), classes=two_classes(), counts=(20, 20), noise_sigma=0.1, seed=3)
    v0, p0 = generate_tomogram(SceneSpec(min_separation=0.0, **base))
    v1, p1 = generate_tomogram(SceneSpec(min_separation=1e-9, **base))
    assert p0.records == p1.records
    assert v0.values.tobytes() == v1.values.tobytes()


def test_picks_inside_margin():
    spec = SceneSpec((24, 24, 24), two_classes(), (3, 3), seed=2, min_separation=30.0)
    _, picks = generate_tomogram(spec)
    for rec in picks.records:
        radius = two_classes()[rec.class_id].radius
        for axis, dim in zip((rec.z, rec.y, rec.x), (24, 24, 24)):
            c = phys_to_pixel(axis, SP)
            assert radius / SP <= c <= dim - radius / SP


def test_placement_failure_raises():
    # min_separation far larger than the volume makes >1 particle impossible
    spec = SceneSpec((16, 16, 16), two_classes(), (5, 0), seed=0, min_separation=1e5)
    with pytest.raises(PlacementError):
        generate_tomogram(spec)


def test_noiseless_local_argmax_recovers_every_pick():
    spec = SceneSpec((40, 40, 40), two_classes(), (3, 2), seed=21, min_separation=120.0)
    vol, picks = generate_tomogram(spec)
    for rec in picks.records:
        radius_vox = two_classes()[rec.class_id].radius / SP
        cz, cy, cx = (phys_to_pixel(v, SP) for v in (rec.z, rec.y, rec.x))
        r = int(math.ceil(radius_vox))
        z0, z1 = max(0, int(cz) - r), min(40, int(cz) + r + 1)
        y0, y1 = max(0, int(cy) - r), min(40, int(cy) + r + 1)
        x0, x1 = max(0, int(cx) - r), min(40, int(cx) + r + 1)
        region = vol.values[z0:z1, y0:y1, x0:x1]
        dz, dy, dx = np.unravel_index(region.argmax(), region.shape)
        peak = (z0 + dz + 0.5, y0 + dy + 0.5, x0 + dx + 0.5)
        assert math.dist(peak, (cz, cy, cx)) <= math.sqrt(3) * 0.5 + 1e-6


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec((8, 8, 8), two_classes(), (1,), seed=0)
    with pytest.raises(ValueError):
        SceneSpec((8, 8, 8), two_classes(), (-1, 0), seed=0)
    with pytest.raises(ValueError):
        SceneSpec((8, 8, 8), two_classes(), (1, 1), noise_sigma=-1.0, seed=0)
