"""Local-maxima peak extraction and heatmap -> pick conversion."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from tomopick import postproc
from tomopick.coords import ParticleClassSpec, PickRecord, PickSet, rasterize_heatmap
from tomopick.postproc import extract_picks, local_maxima
from tomopick.volgrid import Heatmap

from helpers import brute_local_maxima


def _cls(name="c", sigma=2.0, thresh=0.5, tau=60.0):
    return ParticleClassSpec(name, radius=30.0, sigma_vox=sigma, detect_threshold=thresh,
                             match_radius_tau=tau)


def test_single_gaussian_yields_one_peak():
    # (15 + 0.5 - offset) * 10 = 145: lands exactly on a voxel center
    picks = PickSet((PickRecord(0, 145.0, 145.0, 145.0),), spacing=10.0)
    hm = rasterize_heatmap(picks, [_cls()], (32, 32, 32))
    peaks = local_maxima(hm.data[0], kernel=7)
    peaks = [p for p in peaks if p[1] >= 0.5]
    assert len(peaks) == 1
    (z, y, x), val = peaks[0]
    assert val == pytest.approx(1.0, abs=1e-6)


def test_two_spikes_three_apart_kernel7_keeps_only_larger():
    vol = np.zeros((16, 16, 16), dtype=np.float32)
    vol[8, 8, 8] = 0.9
    vol[8, 8, 11] = 0.8
    peaks = [p for p in local_maxima(vol, kernel=7) if p[1] > 0]
    assert peaks == [((8, 8, 8), pytest.approx(0.9))]


def test_two_spikes_three_apart_kernel3_keeps_both():
    vol = np.zeros((16, 16, 16), dtype=np.float32)
    vol[8, 8, 8] = 0.9
    vol[8, 8, 11] = 0.8
    peaks = sorted(p for p in local_maxima(vol, kernel=3) if p[1] > 0)
    assert peaks == [((8, 8, 8), pytest.approx(0.9)), ((8, 8, 11), pytest.approx(0.8))]


def test_kernel_one_returns_every_voxel():
    rng = np.random.default_rng(0)
    vol = rng.random((3, 4, 5)).astype(np.float32)
    peaks = local_maxima(vol, kernel=1)
    assert len(peaks) == vol.size
    for (z, y, x), val in peaks:
        assert val == vol[z, y, x]


def test_plateau_keeps_lexicographically_smallest():
    vol = np.zeros((8, 8, 8), dtype=np.float32)
    vol[4, 4, 4] = 0.7
    vol[4, 4, 5] = 0.7
    peaks = [p for p in local_maxima(vol, kernel=3) if p[1] > 0]
    assert peaks == [((4, 4, 4), pytest.approx(0.7))]


def test_flat_plateau_gives_one_peak_quickly():
    """A saturated 10x90x90 plateau: every voxel is a candidate, one survives."""
    vol = np.zeros((16, 96, 96), dtype=np.float32)
    vol[3:13, 3:93, 3:93] = 0.7
    start = time.perf_counter()
    peaks = local_maxima(vol, kernel=7, min_value=0.5)
    elapsed = time.perf_counter() - start
    assert peaks == [((3, 3, 3), pytest.approx(0.7))]
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("seed", range(3))
def test_kernel_beyond_the_channel_is_clipped(seed):
    """A kernel far wider than the channel gives the peaks of the smallest
    kernel that spans it, at the cost of that kernel."""
    vol = np.round(np.random.default_rng(seed).random((5, 7, 9)) * 4).astype(np.float32) / 4
    spanning = 2 * max(vol.shape) - 1
    start = time.perf_counter()
    peaks = local_maxima(vol, kernel=10001)
    elapsed = time.perf_counter() - start
    assert peaks == local_maxima(vol, kernel=spanning)
    assert sorted(peaks) == sorted(brute_local_maxima(vol, spanning))
    assert elapsed < 1.0, elapsed


def test_even_or_nonpositive_kernel_rejected():
    vol = np.zeros((4, 4, 4), dtype=np.float32)
    for k in (0, 2, 4, -1):
        with pytest.raises(ValueError):
            local_maxima(vol, kernel=k)


@pytest.mark.parametrize("kernel", [1, 3, 7])
@pytest.mark.parametrize("seed", range(6))
def test_matches_brute_force_oracle(kernel, seed):
    """The oracle's peaks in (z, y, x) order, also on plateau-heavy channels
    with axes of length 1-11 and kernels 1-11 (wider than the channel too),
    with and without a threshold, in float32 and float64 and through a
    non-contiguous view."""
    rng = np.random.default_rng(seed)
    vol = rng.random((10, 12, 9)).astype(np.float32)
    # quantize so plateaus actually occur
    vol = np.round(vol * 8) / 8
    assert local_maxima(vol, kernel) == sorted(brute_local_maxima(vol, kernel))
    for k in (kernel, kernel + 2 + 2 * (seed % 2)):
        shape = rng.integers(1, 12, size=3)
        if k > kernel:
            shape[seed % 3] = 1
        plateaus = (rng.integers(0, 4, size=shape) / 3).astype(np.float32)
        for channel in (plateaus, plateaus[:, :, ::-1]):
            want = sorted(brute_local_maxima(np.ascontiguousarray(channel), k))
            for min_value in (None, 2 / 3):
                kept = [p for p in want if min_value is None or p[1] >= min_value]
                assert local_maxima(channel, k, min_value) == kept
                assert local_maxima(channel.astype(np.float64), k, min_value) == kept


@pytest.mark.parametrize("min_value", [None, 0.5])
def test_peak_memory_stays_near_two_channels(min_value):
    """No whole-channel padded copy: the two max-filter outputs and the
    candidate mask are the peak."""
    channel = np.random.default_rng(0).random((32, 64, 64), dtype=np.float32)
    tracemalloc.start()
    try:
        local_maxima(channel, kernel=7, min_value=min_value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * channel.nbytes, peak / channel.nbytes


def test_saturated_channel_peak_memory():
    """An all-ones channel keeps every voxel as a candidate until the first
    plane probe; the probes read plane, row and column from the flat index,
    with no (z, y, x) copy of the candidates (14.5 channel sizes before)."""
    channel = np.ones((32, 64, 64), dtype=np.float32)
    tracemalloc.start()
    try:
        assert local_maxima(channel, kernel=7, min_value=0.5) == [((0, 0, 0), 1.0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * channel.nbytes, peak / channel.nbytes


def test_last_maximum_filter_result_is_the_cube_max(monkeypatch):
    """The benchmark's tracer counts candidates from the last array
    `postproc.maximum_filter` returns inside `local_maxima`."""
    results = []

    def recorder(*args, **kwargs):
        results.append(ndimage.maximum_filter(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(postproc, "maximum_filter", recorder)
    channel = np.round(np.random.default_rng(1).random((4, 20, 30)) * 4).astype(np.float32)
    local_maxima(channel, kernel=9, min_value=1.0)
    cube = ndimage.maximum_filter(channel, size=(7, 9, 9), mode="nearest")
    assert np.array_equal(results[-1], cube)


@pytest.mark.parametrize("seed", range(4))
def test_maximum_filter_matches_scipy_nearest(seed):
    """scipy is the oracle: the same values and dtype for odd sizes 1-15 per
    axis (wider than the axis too, axes of length 1 included), float32 and
    float64, +-inf, and non-contiguous views; the input is left as it was."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        shape = tuple(int(n) for n in rng.integers(1, 12, size=rng.integers(1, 4)))
        a = (rng.integers(0, 5, size=shape) / 4).astype(rng.choice([np.float32, np.float64]))
        a[rng.random(shape) < 0.05] = np.inf
        a[rng.random(shape) < 0.05] = -np.inf
        views = [a, a[..., ::-1], a.T, np.repeat(a, 2, axis=-1)[..., ::2]]
        for view in views:
            for size in (int(rng.integers(0, 8)) * 2 + 1,
                         tuple(int(k) * 2 + 1 for k in rng.integers(0, 8, size=a.ndim))):
                before = view.copy()
                got = postproc.maximum_filter(view, size)
                want = ndimage.maximum_filter(view, size=size, mode="nearest")
                assert got.dtype == want.dtype and np.array_equal(got, want), (view.shape, size)
                assert np.array_equal(view, before)
    with pytest.raises(ValueError):
        postproc.maximum_filter(np.zeros(3), 2)
    with pytest.raises(ValueError):
        postproc.maximum_filter(np.zeros(3), 3, mode="reflect")


def test_nan_is_never_a_peak_and_never_suppresses_a_neighbour():
    """fmax skips NaN: the filter max of a row is the max of its non-NaN
    neighbours, and the peaks of a channel with NaNs are the peaks it has with
    each NaN below every value, less the NaN voxels themselves."""
    row = np.array([0, 1, 0, 0, np.nan, 0, 0, 0])
    assert np.array_equal(postproc.maximum_filter(row, 3), [1, 1, 1, 0, 0, 0, 0, 0])
    rng = np.random.default_rng(3)
    for kernel in (1, 3, 5):
        channel = (rng.integers(0, 4, size=(6, 7, 8)) / 3).astype(np.float32)
        nan = rng.random(channel.shape) < 0.2
        channel[nan] = np.nan
        want = [p for p in brute_local_maxima(np.where(nan, -np.inf, channel), kernel) if not nan[p[0]]]
        for min_value in (None, 1 / 3):
            assert local_maxima(channel, kernel, min_value) == [
                p for p in sorted(want) if min_value is None or p[1] >= min_value]


def test_voxel_index_to_physical_example():
    hm = Heatmap(np.zeros((1, 16, 32, 48), dtype=np.float32), spacing=10.012)
    hm.data.flags.writeable = True
    hm.data[0, 10, 20, 30] = 0.9
    hm.data.flags.writeable = False
    picks = extract_picks(hm, [_cls(thresh=0.5)], kernel=7)
    assert len(picks) == 1
    rec = picks.records[0]
    # spacing is held as a 32-bit real, so allow the f32 rounding of 10.012
    assert rec.x == pytest.approx(295.354, abs=1e-4)
    assert rec.y == pytest.approx(195.234, abs=1e-4)
    assert rec.z == pytest.approx(95.114, abs=1e-4)
    assert rec.score == pytest.approx(0.9, abs=1e-7)


def test_rasterize_then_extract_lattice_round_trip():
    spacing = 10.0
    coords = [40.0, 120.0, 200.0]
    records = tuple(
        PickRecord(0, x, y, z) for z in coords for y in coords for x in coords
    )
    picks = PickSet(records, spacing=spacing)
    cls = _cls(sigma=2.0)
    hm = rasterize_heatmap(picks, [cls], (28, 28, 28))
    out = extract_picks(hm, [cls], kernel=7)
    assert len(out) == len(records)
    got = sorted((r.z, r.y, r.x) for r in out.records)
    want = sorted((r.z, r.y, r.x) for r in records)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=spacing / 2)


def test_threshold_filters_picks():
    hm_data = np.zeros((1, 8, 8, 8), dtype=np.float32)
    hm_data[0, 2, 2, 2] = 0.6
    hm_data[0, 2, 2, 6] = 0.3
    hm = Heatmap(hm_data, spacing=10.0)
    high = extract_picks(hm, [_cls(thresh=0.5)], kernel=3)
    low = extract_picks(hm, [_cls(thresh=0.25)], kernel=3)
    assert len(high) == 1
    assert len(low) == 2
    assert {r.score for r in high.records} <= {r.score for r in low.records}


def test_channel_count_mismatch_rejected():
    hm = Heatmap(np.zeros((2, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        extract_picks(hm, [_cls()])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kernel=st.sampled_from([3, 5, 7]),
)
def test_peaks_are_at_least_kernel_radius_apart_or_unequal(seed, kernel):
    rng = np.random.default_rng(seed)
    vol = rng.random((8, 8, 8))
    peaks = local_maxima(vol, kernel)
    r = kernel // 2
    pts = [p for p, _ in peaks]
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            assert max(abs(a[k] - b[k]) for k in range(3)) > r


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lower_threshold_is_superset(seed):
    rng = np.random.default_rng(seed)
    hm = Heatmap(rng.random((1, 6, 6, 6)).astype(np.float32), spacing=10.0)
    hi = extract_picks(hm, [_cls(thresh=0.6)], kernel=3)
    lo = extract_picks(hm, [_cls(thresh=0.3)], kernel=3)
    hi_pts = {(r.z, r.y, r.x) for r in hi.records}
    lo_pts = {(r.z, r.y, r.x) for r in lo.records}
    assert hi_pts <= lo_pts
