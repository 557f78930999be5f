"""Coordinate conversion offsets and Gaussian target rasterization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_rasterize
from tomopick.coords import (
    ParticleClassSpec,
    PickRecord,
    PickSet,
    phys_to_pixel,
    pixel_to_phys,
    rasterize_heatmap,
    read_picks,
    write_picks,
)

SP = 10.012


def make_class(sigma=2.0, **kw):
    defaults = dict(name="c0", radius=60.0, sigma_vox=sigma,
                    detect_threshold=0.5, match_radius_tau=60.0, metric_weight=1.0)
    defaults.update(kw)
    return ParticleClassSpec(**defaults)


def lattice_pick(z, y, x, class_id=0, spacing=SP):
    """Pick whose continuous pixel coordinate lands on voxel center (z, y, x)."""
    return PickRecord(
        class_id,
        pixel_to_phys(x, spacing),
        pixel_to_phys(y, spacing),
        pixel_to_phys(z, spacing),
    )


def test_phys_to_pixel_examples():
    assert phys_to_pixel(0.0, SP) == 1.0
    assert phys_to_pixel(10.012, SP) == 2.0
    assert phys_to_pixel(-5.006, SP) == pytest.approx(0.5, abs=1e-12)


def test_pixel_to_phys_examples():
    assert pixel_to_phys(0, SP) == pytest.approx(-5.006, abs=1e-12)
    assert pixel_to_phys(1, SP) == pytest.approx(5.006, abs=1e-12)


def test_roundtrip_exhaustive():
    for i in range(1001):
        assert phys_to_pixel(pixel_to_phys(i, SP), SP) == pytest.approx(i + 0.5, abs=1e-9)


def test_alternate_offset_convention():
    assert phys_to_pixel(0.0, SP, offset=0.5) == 0.5
    assert pixel_to_phys(0, SP, offset=0.5) == 0.0


def test_rasterize_peak_exact_one():
    picks = PickSet((lattice_pick(4, 5, 6),), SP)
    hm = rasterize_heatmap(picks, [make_class()], (10, 10, 10))
    assert hm.data[0, 4, 5, 6] == 1.0
    assert np.unravel_index(hm.data[0].argmax(), (10, 10, 10)) == (4, 5, 6)


def test_rasterize_one_sigma_offset():
    sigma = 2.0
    picks = PickSet((lattice_pick(4, 5, 6),), SP)
    hm = rasterize_heatmap(picks, [make_class(sigma)], (10, 12, 12))
    # voxel one sigma away along x
    assert hm.data[0, 4, 5, 8] == pytest.approx(math.exp(-0.5), rel=1e-6)


def test_rasterize_overlap_is_max_not_sum():
    picks = PickSet((lattice_pick(4, 4, 4), lattice_pick(4, 4, 5)), SP)
    cls = make_class(2.0)
    hm = rasterize_heatmap(picks, [cls], (9, 9, 9))
    centers = [(4.5, 4.5, 4.5), (4.5, 4.5, 5.5)]
    oracle = brute_rasterize(centers, 2.0, (9, 9, 9))
    np.testing.assert_allclose(hm.data[0], oracle, atol=1e-6)
    assert hm.data[0].max() <= 1.0


def test_rasterize_is_the_float32_of_the_float64_max():
    """Overlapping same-class picks: every voxel holds the float64 per-voxel max
    rounded once to float32."""
    rng = np.random.default_rng(5)
    dims = (8, 10, 10)
    recs = [PickRecord(k % 2, *rng.uniform(10.0, 60.0, size=3)) for k in range(8)]  # all in the volume
    classes = [make_class(2.0), make_class(1.5, name="c1")]
    hm = rasterize_heatmap(PickSet(tuple(recs), SP), classes, dims)
    assert hm.data.dtype == np.float32
    for c, cls in enumerate(classes):
        centers = [tuple(phys_to_pixel(v, SP) for v in (r.z, r.y, r.x)) for r in recs if r.class_id == c]
        assert hm.data[c].tobytes() == np.float32(brute_rasterize(centers, cls.sigma_vox, dims)).tobytes()


def test_rasterize_values_bounded():
    rng = np.random.default_rng(0)
    recs = tuple(
        lattice_pick(int(a), int(b), int(c))
        for a, b, c in rng.integers(0, 12, size=(10, 3))
    )
    hm = rasterize_heatmap(PickSet(recs, SP), [make_class(3.0)], (12, 12, 12))
    assert hm.data.min() >= 0.0
    assert hm.data.max() <= 1.0


def test_truncation_error_bound():
    picks = PickSet((lattice_pick(8, 8, 8),), SP)
    cls = make_class(2.0)
    dims = (17, 17, 17)
    truncated = rasterize_heatmap(picks, [cls], dims, truncation=3.0)
    full = rasterize_heatmap(picks, [cls], dims, truncation=100.0)
    diff = np.abs(full.data - truncated.data).max()
    assert diff <= math.exp(-4.5) + 1e-6


def test_out_of_volume_pick_skipped(caplog):
    away = PickRecord(0, 1e6, 1e6, 1e6)
    with caplog.at_level("WARNING"):
        hm = rasterize_heatmap(PickSet((away,), SP), [make_class()], (8, 8, 8))
    assert hm.data.max() == 0.0
    assert "skipped 1" in caplog.text


def test_rasterize_then_argmax_recovers_lattice_pick():
    for z, y, x in [(0, 0, 0), (7, 3, 11), (3, 9, 5)]:
        hm = rasterize_heatmap(PickSet((lattice_pick(z, y, x),), SP), [make_class()], (12, 12, 12))
        assert np.unravel_index(hm.data[0].argmax(), (12, 12, 12)) == (z, y, x)


@settings(max_examples=50, deadline=None)
@given(
    z=st.integers(0, 7), y=st.integers(0, 7), x=st.integers(0, 7),
    sigma=st.floats(0.5, 4.0),
)
def test_monotone_decrease_from_single_pick(z, y, x, sigma):
    hm = rasterize_heatmap(PickSet((lattice_pick(z, y, x),), SP), [make_class(sigma)], (8, 8, 8))
    c = np.array([z + 0.5, y + 0.5, x + 0.5])
    grid = np.stack(np.meshgrid(*[np.arange(8) + 0.5] * 3, indexing="ij"), axis=-1)
    dist = np.linalg.norm(grid - c, axis=-1)
    vals = hm.data[0]
    order = np.argsort(dist.reshape(-1))
    sorted_vals = vals.reshape(-1)[order]
    sorted_dist = dist.reshape(-1)[order]
    # non-increasing with distance, up to float32 storage and equal distances
    for i in range(1, len(sorted_vals)):
        if sorted_dist[i] > sorted_dist[i - 1] + 1e-9:
            assert sorted_vals[i] <= sorted_vals[i - 1] + 1e-6


def test_picks_file_roundtrip(tmp_path):
    classes = [make_class(name="a"), make_class(name="b")]
    picks = PickSet(
        (
            PickRecord(0, 1.5, -2.25, 3.125, 0.75),
            PickRecord(1, 100.0, 200.0, 300.0, None),
        ),
        SP,
    )
    path = tmp_path / "p.picks"
    write_picks(picks, classes, path)
    back = read_picks(path, classes, SP)
    assert back.records == picks.records


def test_picks_file_unknown_class(tmp_path):
    path = tmp_path / "p.picks"
    path.write_text("class,x,y,z,score\nmystery,1,2,3,\n")
    with pytest.raises(Exception):
        read_picks(path, [make_class(name="a")], SP)
