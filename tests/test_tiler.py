"""Window planning, blend masks, aggregation, and ensembling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomopick.tiler import (
    DEFAULT_EDGE_FLOOR,
    WindowPlan,
    aggregate,
    blend_mask,
    ensemble,
    plan_axis,
    tiled_inference,
)
from tomopick.volgrid import Heatmap, Volume3D, pad_volume


def origins(plan):
    return [o for o, _ in plan]


def test_plan_656_128_48_gives_12():
    plan = plan_axis(656, 128, 48)
    assert origins(plan) == list(range(0, 529, 48))
    assert len(plan) == 12
    assert not any(clamped for _, clamped in plan)


def test_plan_184_16_8_gives_22():
    plan = plan_axis(184, 16, 8)
    assert len(plan) == 22
    assert not any(clamped for _, clamped in plan)


def test_plan_184_32_16_clamps_final():
    plan = plan_axis(184, 32, 16)
    assert origins(plan) == list(range(0, 145, 16)) + [152]
    assert len(plan) == 11
    assert plan[-1] == (152, True)


def test_plan_window_too_large():
    with pytest.raises(ValueError):
        plan_axis(10, 16, 4)


@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(4, 300),
    window=st.integers(1, 64),
    stride=st.integers(1, 64),
)
def test_plan_covers_every_position(length, window, stride):
    if window > length:
        window = length
    stride = min(stride, window)
    plan = plan_axis(length, window, stride)
    covered = np.zeros(length, dtype=int)
    for o, _ in plan:
        assert 0 <= o <= length - window
        covered[o : o + window] += 1
    assert covered.min() >= 1
    os = origins(plan)
    assert os == sorted(set(os))


def test_interior_coverage_is_three_at_stride_48():
    plan = plan_axis(656, 128, 48)
    covered = np.zeros(656, dtype=int)
    for o, _ in plan:
        covered[o : o + 128] += 1
    # window/stride = 128/48: interior positions sit under 2 or 3 windows
    assert set(covered[128:-128]) == {2, 3}
    assert covered.min() >= 1


def test_blend_mask_center_and_edge_values():
    L = 16
    ef = 0.01
    mask = blend_mask((L, L, L), ef)
    tent_center = ef + (1 - ef) * (1 - 1 / L)
    tent_edge = ef + (1 - ef) * (1 / L)
    center = mask[L // 2 - 1, L // 2 - 1, L // 2 - 1]
    assert center == pytest.approx(tent_center**3, rel=1e-12)
    assert mask[0, L // 2 - 1, L // 2 - 1] == pytest.approx(
        tent_edge * tent_center**2, rel=1e-12
    )
    assert mask.min() > 0.0


@settings(max_examples=30, deadline=None)
@given(dims=st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9)))
def test_blend_mask_reflection_symmetric(dims):
    m = blend_mask(dims, 0.05)
    np.testing.assert_allclose(m, m[::-1], atol=1e-15)
    np.testing.assert_allclose(m, m[:, ::-1], atol=1e-15)
    np.testing.assert_allclose(m, m[:, :, ::-1], atol=1e-15)


def _const_predictor(c, channels=2):
    def predict(window):
        return np.full((channels,) + window.shape, c, dtype=np.float64)

    return predict


def test_aggregate_constant_predictor_exact():
    vol = Volume3D(np.zeros((12, 20, 20), dtype=np.float32))
    plan = WindowPlan.build(vol.dims, (4, 8, 8), (2, 4, 4))
    hm = aggregate(_const_predictor(0.625), vol, plan, blend_mask((4, 8, 8)))
    assert np.all(hm.data == np.float32(0.625))


def test_aggregate_oracle_crop_predictor_reproduces_oracle():
    rng = np.random.default_rng(8)
    oracle = rng.random((2, 12, 20, 20))
    vol = Volume3D(np.zeros((12, 20, 20), dtype=np.float32))
    plan = WindowPlan.build(vol.dims, (4, 8, 8), (2, 4, 4))
    preds = {}
    for z, y, x in plan.iter_origins():
        preds[(z, y, x)] = oracle[:, z : z + 4, y : y + 8, x : x + 8]
    it = iter(list(plan.iter_origins()))

    def predict_in_order(window):
        origin = next(it)
        return preds[origin]

    hm = aggregate(predict_in_order, vol, plan, blend_mask((4, 8, 8)), workers=1)
    np.testing.assert_allclose(hm.data, oracle.astype(np.float32), atol=1e-6)


def test_aggregate_single_window_identity():
    rng = np.random.default_rng(1)
    vol = Volume3D(rng.random((4, 8, 8)).astype(np.float32))
    plan = WindowPlan.build(vol.dims, (4, 8, 8), (4, 8, 8))
    assert len(list(plan.iter_origins())) == 1
    out = aggregate(lambda win: win[None] * 2.0, vol, plan, blend_mask((4, 8, 8)))
    np.testing.assert_allclose(out.data[0], vol.values * 2.0, atol=1e-7)


def test_aggregate_worker_counts_bit_identical():
    rng = np.random.default_rng(5)
    vol = Volume3D(rng.random((8, 16, 16)).astype(np.float32))
    plan = WindowPlan.build(vol.dims, (4, 8, 8), (2, 4, 4))
    mask = blend_mask((4, 8, 8))

    def predict(window):
        return np.stack([window * 0.5, window**2])

    outs = [aggregate(predict, vol, plan, mask, workers=k) for k in (1, 2, 8)]
    assert outs[0].data.tobytes() == outs[1].data.tobytes() == outs[2].data.tobytes()


def test_aggregate_shape_mismatch_rejected():
    vol = Volume3D(np.zeros((4, 8, 8), dtype=np.float32))
    plan = WindowPlan.build(vol.dims, (4, 8, 8), (4, 8, 8))
    with pytest.raises(ValueError):
        aggregate(lambda w: np.zeros((1, 2, 2, 2)), vol, plan, blend_mask((4, 8, 8)))


def test_aggregate_rejects_non_finite_window_at_once():
    vol = Volume3D(np.zeros((4, 8, 8), dtype=np.float32))
    plan = WindowPlan.build(vol.dims, (4, 4, 4), (4, 4, 4))
    calls = []

    def predict(window):
        calls.append(window)
        out = np.zeros((1,) + window.shape)
        if len(calls) == 2:
            out[0, 1, 2, 3] = np.nan
        return out

    with pytest.raises(ValueError, match=r"origin \(0, 0, 4\) is not finite"):
        aggregate(predict, vol, plan, blend_mask((4, 4, 4), 1.0))
    assert len(calls) == 2  # the remaining windows never run


def test_aggregate_uncovered_voxels_rejected():
    vol = Volume3D(np.zeros((4, 10, 10), dtype=np.float32))
    # Origin 0 alone on each axis: x and y 8-9 are uncovered.
    plan = WindowPlan((4, 8, 8), ((0, False),), ((0, False),), ((0, False),))
    with pytest.raises(ValueError, match="uncovered"):
        aggregate(_const_predictor(0.5), vol, plan, blend_mask((4, 8, 8)))


@pytest.mark.parametrize("window, strides", [
    ((4, 8, 8), (8, 4, 4)),  # z_stride > z_window: rows 4-7 are skipped
    ((4, 4, 4), (4, 8, 4)),  # y_stride > y_window
    ((4, 4, 4), (4, 4, 6)),  # x_stride > x_window
])
def test_aggregate_uncovered_plan_makes_no_predictor_call(window, strides):
    vol = Volume3D(np.zeros((16, 16, 16), dtype=np.float32))
    plan = WindowPlan.build(vol.dims, window, strides)
    calls = []

    def predict(win):
        calls.append(win.shape)
        return np.zeros((1,) + win.shape)

    with pytest.raises(ValueError, match="window plan leaves voxels uncovered"):
        aggregate(predict, vol, plan, blend_mask(window, 1.0))
    assert calls == []


def test_aggregate_rejects_z_origins_out_of_order():
    vol = Volume3D(np.zeros((8, 4, 4), dtype=np.float32))
    plan = WindowPlan((4, 4, 4), ((4, False), (0, False)), ((0, False),), ((0, False),))
    with pytest.raises(ValueError, match="increasing order"):
        aggregate(_const_predictor(0.5), vol, plan, blend_mask((4, 4, 4), 1.0))


def _full_volume_aggregate(predictor, volume, plan, mask):
    """Reference: one float64 numerator and denominator over the whole
    volume, filled in plan order, then divided and cast to float32."""
    wz, wy, wx = plan.window
    num, den = None, np.zeros(volume.dims)
    for z, y, x in plan.iter_origins():
        pred = predictor(volume.values[z : z + wz, y : y + wy, x : x + wx])
        if num is None:
            num = np.zeros((pred.shape[0],) + volume.dims)
        num[:, z : z + wz, y : y + wy, x : x + wx] += mask[None] * pred
        den[z : z + wz, y : y + wy, x : x + wx] += mask
    return (num / den[None]).astype(np.float32)


@st.composite
def _axis(draw, lo=1, hi=24):
    """(length, window, stride) with stride <= window, so that equal strides
    and clamped last origins both occur."""
    length = draw(st.integers(lo, hi))
    window = draw(st.integers(1, length))
    stride = draw(st.one_of(st.just(window), st.integers(1, window)))
    return length, window, stride


@settings(max_examples=60, deadline=None)
@given(
    axes=st.tuples(_axis(), _axis(hi=12), _axis(hi=12)),
    channels=st.integers(1, 3),
    edge_floor=st.sampled_from([DEFAULT_EDGE_FLOOR, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_aggregate_streams_bit_identical_to_full_volume(axes, channels, edge_floor, seed):
    dims, window, strides = (tuple(a[i] for a in axes) for i in range(3))
    vol = Volume3D(np.random.default_rng(seed).random(dims).astype(np.float32))
    plan = WindowPlan.build(dims, window, strides)
    mask = blend_mask(window, edge_floor)

    def predict(win):
        return np.stack([np.sin(win * (c + 1)) for c in range(channels)])

    want = _full_volume_aggregate(predict, vol, plan, mask).tobytes()
    for workers in (1, 2):
        assert aggregate(predict, vol, plan, mask, workers=workers).data.tobytes() == want


def _aggregate_peak(workers, c=4, d=64, hw=64, window=(8, 32, 32), strides=(4, 16, 16)):
    """tracemalloc peak of one aggregate call and the output's size."""
    vol = Volume3D(np.random.default_rng(3).random((d, hw, hw)).astype(np.float32))
    plan = WindowPlan.build(vol.dims, window, strides)
    mask = blend_mask(window)

    def predict(win):
        return np.stack([win * (k + 1) for k in range(c)])

    tracemalloc.start()
    try:
        hm = aggregate(predict, vol, plan, mask, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, hm.data.nbytes


def test_aggregate_peak_memory_is_a_slab_not_the_volume():
    c, d, hw, wz, sz = 4, 64, 64, 8, 4
    peak, out_bytes = _aggregate_peak(1, c, d, hw, (wz, 32, 32), (sz, 16, 16))
    bound = out_bytes + 2 * c * (wz + sz) * hw * hw * 8
    assert bound < c * d * hw * hw * 8  # the full float64 numerator alone
    assert peak < bound, (peak, bound)


def test_aggregate_workers_keep_few_windows_in_flight():
    """A cheap predictor outruns the serial consumer; the predictions held
    at once must not grow with the window count (135 here)."""
    pred_bytes = 4 * 8 * 32 * 32 * 4
    extra = _aggregate_peak(2)[0] - _aggregate_peak(1)[0]
    assert extra < 16 * pred_bytes, extra


def test_ensemble_idempotent_and_mean():
    rng = np.random.default_rng(2)
    a = Heatmap(rng.random((1, 2, 3, 3)).astype(np.float32))
    b = Heatmap(rng.random((1, 2, 3, 3)).astype(np.float32))
    same = ensemble([a, a, a])
    np.testing.assert_allclose(same.data, a.data, atol=1e-7)
    two = ensemble([a, b])
    np.testing.assert_allclose(two.data, (a.data.astype(np.float64) + b.data) / 2, atol=1e-7)
    zeros = Heatmap(np.zeros((1, 2, 3, 3), dtype=np.float32))
    ones = Heatmap(np.ones((1, 2, 3, 3), dtype=np.float32))
    np.testing.assert_array_equal(ensemble([zeros, ones]).data, np.float32(0.5))


def test_ensemble_shape_mismatch():
    a = Heatmap(np.zeros((1, 2, 2, 2), dtype=np.float32))
    b = Heatmap(np.zeros((2, 2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        ensemble([a, b])


def test_tiled_inference_constant_predictor():
    vol = Volume3D(np.zeros((8, 30, 30), dtype=np.float32))
    hm = tiled_inference(
        [_const_predictor(0.25, channels=3)],
        vol,
        window_hw=16,
        xy_stride=8,
        pad_to=32,
        z_window=4,
        z_stride=2,
    )
    assert hm.data.shape == (3, 8, 30, 30)
    np.testing.assert_allclose(hm.data, 0.25, atol=1e-7)


def test_flat_mask_is_uniform():
    """Edge floor 1, the no-blend-weight ablation, gives exactly uniform weights."""
    for window in ((3, 4, 5), (16, 128, 128), (1, 7, 2)):
        m = blend_mask(window, 1.0)
        assert m.dtype == np.float64
        assert m.tobytes() == np.ones(window).tobytes()


def _aggregate_each_then_ensemble(predictors, volume, pad_to, window, strides, mask, workers):
    """Reference: each model's heatmap of the padded volume, cropped, then
    averaged by `ensemble` in a separate pass."""
    d, h, w = volume.dims
    py0, px0 = (pad_to - h) // 2, (pad_to - w) // 2
    padded = pad_volume(volume, (0, py0, px0), (0, pad_to - h - py0, pad_to - w - px0))
    plan = WindowPlan.build(padded.dims, window, strides)
    crops = [aggregate(p, padded, plan, mask, workers=workers).data for p in predictors]
    return ensemble([Heatmap(c[:, :, py0 : py0 + h, px0 : px0 + w]) for c in crops]).data


@settings(max_examples=60, deadline=None)
@given(
    models=st.integers(1, 3),
    channels=st.integers(1, 3),
    dims=st.tuples(st.integers(2, 12), st.integers(8, 14), st.integers(8, 14)),
    extra=st.sampled_from([0, 0, 1, 4]),
    edge_floor=st.sampled_from([DEFAULT_EDGE_FLOOR, 1.0]),
    workers=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_tiled_inference_folds_ensemble_bit_identically(models, channels, dims, extra, edge_floor, workers, data):
    """The ensemble folded into the last model's flushes equals per-model
    aggregation, crop and `ensemble`, byte for byte, padded XY or not."""
    d, h, w = dims
    pad_to = max(h, w) + extra
    wz = data.draw(st.integers(1, d))
    whw = data.draw(st.integers(2, min(h, w)))
    sz, sxy = data.draw(st.integers(1, wz)), data.draw(st.integers(1, whw))
    vol = Volume3D(np.random.default_rng(d * h * w).random(dims).astype(np.float32))

    def member(k):
        # Members alternate float64 and float32 predictions.
        def predict(win):
            return np.stack([np.sin(win * (c + 1) + k) for c in range(channels)]).astype(
                np.float32 if k % 2 else np.float64)
        return predict

    predictors = [member(k) for k in range(models)]
    window, strides = (wz, whw, whw), (sz, sxy, sxy)
    mask = blend_mask(window, edge_floor)
    want = _aggregate_each_then_ensemble(predictors, vol, pad_to, window, strides, mask, workers)
    got = tiled_inference(predictors, vol, window_hw=whw, xy_stride=sxy, pad_to=pad_to, z_window=wz,
                          z_stride=sz, edge_floor=edge_floor, workers=workers)
    assert got.data.shape == want.shape
    assert got.data.tobytes() == want.tobytes()


def test_aggregate_rejects_members_of_another_shape():
    vol = Volume3D(np.zeros((4, 4, 4), dtype=np.float32))
    plan = WindowPlan.build(vol.dims, (4, 4, 4), (4, 4, 4))
    other = Heatmap(np.zeros((3, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="share shape"):
        aggregate(_const_predictor(0.5), vol, plan, blend_mask((4, 4, 4), 1.0), members=[other])


def test_two_model_inference_peak_memory_is_one_output_and_a_slab():
    """Two models hold the first model's heatmap and the last one's slab,
    not two heatmaps plus an ensemble output."""
    c, d, hw, wz, sz = 4, 64, 64, 8, 4
    vol = Volume3D(np.random.default_rng(3).random((d, hw, hw)).astype(np.float32))

    def predict(win):
        return np.stack([win * (k + 1) for k in range(c)])

    tracemalloc.start()
    try:
        hm = tiled_inference([predict, predict], vol, window_hw=32, xy_stride=16, pad_to=hw,
                             z_window=wz, z_stride=sz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = hm.data.nbytes
    # The slab bound of the single-model test, plus 1 MB for the padded input
    # copy and small buffers.
    bound = out_bytes + 2 * c * (wz + sz) * hw * hw * 8 + (1 << 20)
    assert bound < 2 * out_bytes + 2 * c * (wz + sz) * hw * hw * 8
    assert peak < bound, (peak, bound)
