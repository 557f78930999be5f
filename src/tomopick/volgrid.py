"""Dense 3D/4D grids, the VOL1/HMC1 binary formats, and padding primitives.

Volumes are stored z-major: the value at (z, y, x) lives at flat offset
(z*H + y)*W + x, which is exactly numpy C-order for a (D, H, W) array.
All files are little-endian; payloads are 32-bit floats.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_SPACING = 10.012

VOL_MAGIC = b"VOL1"
HEATMAP_MAGIC = b"HMC1"

# Refuse headers implying absurd allocations (dim overflow guard).
MAX_VOXELS = 1 << 36


class VolumeError(Exception):
    """Base class for volume container and format errors."""


class BadMagicError(VolumeError):
    pass


class DimOverflowError(VolumeError):
    pass


class TruncatedFileError(VolumeError):
    pass


class NonFiniteValuesError(VolumeError):
    pass


def _check_grid(values: np.ndarray, spacing: float, ndim: int) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float32)
    if values.ndim != ndim:
        raise VolumeError(f"expected {ndim}-d grid, got {values.ndim}-d")
    if any(d <= 0 for d in values.shape):
        raise VolumeError(f"non-positive dims {values.shape}")
    if not np.isfinite(spacing) or spacing <= 0:
        raise VolumeError(f"spacing must be > 0, got {spacing}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteValuesError("grid contains NaN or Inf")
    return values


@dataclass(frozen=True)
class Volume3D:
    """Dense scalar (depth, height, width) grid with physical voxel spacing.

    Immutable after construction; safe to share across workers read-only.
    """

    values: np.ndarray
    spacing: float = DEFAULT_SPACING

    def __post_init__(self):
        object.__setattr__(self, "values", _check_grid(self.values, self.spacing, 3))
        # Spacing is stored as a 32-bit real on disk; coerce up front so the
        # file round trip is an exact identity.
        object.__setattr__(self, "spacing", float(np.float32(self.spacing)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, Volume3D):
            return NotImplemented
        return (
            self.spacing == other.spacing
            and self.dims == other.dims
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class Heatmap:
    """Per-class channel stack (classes, depth, height, width) of confidences."""

    data: np.ndarray
    spacing: float = DEFAULT_SPACING

    def __post_init__(self):
        object.__setattr__(self, "data", _check_grid(self.data, self.spacing, 4))
        object.__setattr__(self, "spacing", float(np.float32(self.spacing)))

    @property
    def classes(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Heatmap):
            return NotImplemented
        return (
            self.spacing == other.spacing
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
        )


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"file truncated while reading {what}")
    return buf


def _read_payload(f, shape: tuple[int, ...], path) -> np.ndarray:
    count = int(np.prod(shape))
    raw = _read_exact(f, 4 * count, "payload")
    if f.read(1) != b"":
        raise TruncatedFileError(f"{path}: trailing bytes after payload")
    values = np.frombuffer(raw, dtype="<f4").reshape(shape)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValuesError(f"{path}: payload contains non-finite values")
    return values.astype(np.float32)


def read_volume(path) -> Volume3D:
    """Read a VOL1 file; rejects bad magic, dim overflow, truncation, NaN/Inf."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != VOL_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        d, h, w = struct.unpack("<3I", _read_exact(f, 12, "dims"))
        if min(d, h, w) == 0 or d * h * w > MAX_VOXELS:
            raise DimOverflowError(f"{path}: bad dims ({d}, {h}, {w})")
        (spacing,) = struct.unpack("<f", _read_exact(f, 4, "spacing"))
        if not np.isfinite(spacing) or spacing <= 0:
            raise NonFiniteValuesError(f"{path}: bad spacing {spacing}")
        values = _read_payload(f, (d, h, w), path)
    return Volume3D(values, float(np.float32(spacing)))


def write_volume(vol: Volume3D, path) -> None:
    """Write a VOL1 file; read_volume(write_volume(v)) is bit-exact."""
    d, h, w = vol.dims
    with open(path, "wb") as f:
        f.write(VOL_MAGIC)
        f.write(struct.pack("<3I", d, h, w))
        f.write(struct.pack("<f", np.float32(vol.spacing)))
        f.write(np.ascontiguousarray(vol.values, dtype="<f4").tobytes())


def read_heatmap(path) -> Heatmap:
    """Read an HMC1 file (VOL1 plus a leading channel-count field)."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != HEATMAP_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        c, d, h, w = struct.unpack("<4I", _read_exact(f, 16, "dims"))
        if min(c, d, h, w) == 0 or c * d * h * w > MAX_VOXELS:
            raise DimOverflowError(f"{path}: bad dims ({c}, {d}, {h}, {w})")
        (spacing,) = struct.unpack("<f", _read_exact(f, 4, "spacing"))
        if not np.isfinite(spacing) or spacing <= 0:
            raise NonFiniteValuesError(f"{path}: bad spacing {spacing}")
        data = _read_payload(f, (c, d, h, w), path)
    return Heatmap(data, float(np.float32(spacing)))


def write_heatmap(hm: Heatmap, path) -> None:
    c = hm.classes
    d, h, w = hm.dims
    with open(path, "wb") as f:
        f.write(HEATMAP_MAGIC)
        f.write(struct.pack("<4I", c, d, h, w))
        f.write(struct.pack("<f", np.float32(hm.spacing)))
        f.write(np.ascontiguousarray(hm.data, dtype="<f4").tobytes())


def pad_volume(
    vol: Volume3D,
    pad_before: tuple[int, int, int],
    pad_after: tuple[int, int, int],
    mode: str = "reflect",
) -> Volume3D:
    """Pad per axis (z, y, x). Reflect mode mirrors without repeating the edge."""
    if any(p < 0 for p in pad_before + pad_after):
        raise ValueError("pads must be >= 0")
    pads = tuple(zip(pad_before, pad_after))
    if mode == "reflect":
        for ax, (pb, pa) in enumerate(pads):
            if max(pb, pa) >= vol.dims[ax]:
                raise ValueError(
                    f"reflect pad {max(pb, pa)} too large for axis of length {vol.dims[ax]}"
                )
        values = np.pad(vol.values, pads, mode="reflect")
    elif mode == "zero":
        values = np.pad(vol.values, pads, mode="constant", constant_values=0.0)
    else:
        raise ValueError(f"unknown pad mode {mode!r}")
    return Volume3D(values, vol.spacing)
