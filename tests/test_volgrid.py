"""VOL1/HMC1 round trips, format rejection, and the reflect padding of inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomopick.tiler import padded_plan, tiled_inference
from tomopick.volgrid import (
    Heatmap,
    Volume3D,
    VolumeError,
    read_heatmap,
    read_volume,
    write_heatmap,
    write_volume,
)


def test_roundtrip_zeros(tmp_path):
    v = Volume3D(np.zeros((2, 2, 2), dtype=np.float32))
    path = tmp_path / "v.vol"
    write_volume(v, path)
    assert read_volume(path) == v


def test_roundtrip_random_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    v = Volume3D(rng.normal(size=(8, 8, 8)).astype(np.float32), spacing=3.5)
    path = tmp_path / "v.vol"
    write_volume(v, path)
    back = read_volume(path)
    assert back == v
    assert back.values.tobytes() == v.values.tobytes()


def test_roundtrip_preserves_default_spacing(tmp_path):
    v = Volume3D(np.ones((3, 4, 5), dtype=np.float32), spacing=10.012)
    path = tmp_path / "v.vol"
    write_volume(v, path)
    back = read_volume(path)
    assert back.spacing == v.spacing
    assert abs(back.spacing - 10.012) < 1e-5


def test_overwrite_replaces_content(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(Volume3D(np.zeros((2, 2, 2), dtype=np.float32)), path)
    v2 = Volume3D(np.full((3, 3, 3), 9.0, dtype=np.float32))
    write_volume(v2, path)
    assert read_volume(path) == v2


def test_file_size_is_header_plus_payload(tmp_path):
    d, h, w = 3, 4, 5
    path = tmp_path / "v.vol"
    write_volume(Volume3D(np.zeros((d, h, w), dtype=np.float32)), path)
    # 4 magic + 12 dims + 4 spacing + 4 bytes per voxel
    assert path.stat().st_size == 20 + 4 * d * h * w


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(Volume3D(np.zeros((4, 4, 4), dtype=np.float32)), path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(VolumeError, match="truncated while reading payload"):
        read_volume(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(Volume3D(np.zeros((4, 4, 4), dtype=np.float32)), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(VolumeError, match="trailing bytes after payload"):
        read_volume(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(Volume3D(np.zeros((2, 2, 2), dtype=np.float32)), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(VolumeError, match="bad magic b'XXXX'"):
        read_volume(path)


def test_dim_overflow_rejected(tmp_path):
    import struct

    path = tmp_path / "v.vol"
    path.write_bytes(b"VOL1" + struct.pack("<3I", 2**31, 2**31, 2) + struct.pack("<f", 1.0))
    with pytest.raises(VolumeError, match="bad dims"):
        read_volume(path)


def test_nonfinite_payload_rejected(tmp_path):
    path = tmp_path / "v.vol"
    write_volume(Volume3D(np.zeros((2, 2, 2), dtype=np.float32)), path)
    data = bytearray(path.read_bytes())
    data[20:24] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(VolumeError, match="grid contains NaN or Inf"):
        read_volume(path)


def test_heatmap_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    hm = Heatmap(rng.random((3, 4, 5, 6)).astype(np.float32), spacing=10.012)
    path = tmp_path / "h.hmc"
    write_heatmap(hm, path)
    assert read_heatmap(path) == hm


def test_indexing_convention_z_major():
    d, h, w = 3, 4, 5
    values = np.arange(d * h * w, dtype=np.float32).reshape(d, h, w)
    v = Volume3D(values)
    flat = v.values.reshape(-1)
    for z, y, x in [(0, 0, 0), (1, 2, 3), (2, 3, 4)]:
        assert flat[(z * h + y) * w + x] == v.values[z, y, x]


def test_volume_rejects_nan():
    bad = np.zeros((2, 2, 2), dtype=np.float32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(VolumeError, match="grid contains NaN or Inf"):
        Volume3D(bad)


def test_volume_rejects_bad_spacing():
    with pytest.raises(VolumeError):
        Volume3D(np.zeros((2, 2, 2), dtype=np.float32), spacing=0.0)


def test_read_heatmap_peaks_at_one_payload(tmp_path):
    """The payload is read straight into the returned array: no bytes object
    and no converted copy beside it."""
    import tracemalloc

    hm = Heatmap(np.random.default_rng(5).random((3, 16, 128, 128)).astype(np.float32))
    path = tmp_path / "h.hmc"
    write_heatmap(hm, path)
    tracemalloc.start()
    try:
        back = read_heatmap(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == hm
    assert peak < hm.data.nbytes + (1 << 20), (peak, hm.data.nbytes)


@pytest.mark.parametrize("magic, dims, reader", [
    (b"HMC1", (6, 1024, 2048, 2048), read_heatmap),
    (b"VOL1", (1024, 2048, 2048), read_volume),
])
def test_header_claiming_more_than_the_file_is_truncated(tmp_path, magic, dims, reader):
    """A 100-byte file whose header claims gigabytes fails on its size,
    before the payload is allocated."""
    import struct

    path = tmp_path / "forged"
    header = magic + struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<f", 10.0)
    path.write_bytes(header + bytes(100 - len(header)))
    with pytest.raises(VolumeError, match="truncated while reading payload"):
        reader(path)


# --- padding -----------------------------------------------------------------


def test_pad_630_to_656():
    """A 630-voxel plane is padded by 13 voxels on each side to the default pad_to 656."""
    plan, pads = padded_plan((16, 630, 630), 128, 48, 656, 16, 8)
    assert pads == ((0, 0), (13, 13), (13, 13))
    assert (len(plan.origins_y), len(plan.origins_x)) == (12, 12)


def test_reflect_pad_does_not_repeat_edge():
    """A row [a, b, c] padded to 5 mirrors about its edge voxels: [b, a, b, c, b]."""
    row = Volume3D(np.array([[[1.0, 2.0, 3.0]]], dtype=np.float32))
    windows = []

    def record(win):
        windows.append(win.copy())
        return win[None]

    tiled_inference([record], row, window_hw=5, xy_stride=5, pad_to=5, z_window=1, z_stride=1)
    assert windows[0][0, 2].tolist() == [2.0, 1.0, 2.0, 3.0, 2.0]


@settings(max_examples=30, deadline=None)
@given(
    dims=st.tuples(*[st.integers(2, 6)] * 3),
    extra=st.tuples(*[st.integers(0, 2)] * 2),
    seed=st.integers(0, 2**16),
)
def test_pad_then_crop_is_identity(dims, extra, seed):
    """An identity predictor over the padded volume gives back the volume: the
    pads `padded_plan` adds on every axis are cropped away exactly."""
    rng = np.random.default_rng(seed)
    v = Volume3D(rng.normal(size=dims).astype(np.float32))
    pad_to, z_window = max(dims[1:]) + extra[0], dims[0] + extra[1]
    hm = tiled_inference([lambda win: win[None]], v, window_hw=2, xy_stride=1, pad_to=pad_to,
                         z_window=z_window, z_stride=1)
    assert hm.data.tobytes() == v.values.tobytes()
