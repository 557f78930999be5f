"""Dense 3D/4D grids, the VOL1/HMC1 binary formats, and reflect padding.

Volumes are stored z-major: the value at (z, y, x) lives at flat offset
(z*H + y)*W + x, which is exactly numpy C-order for a (D, H, W) array.
All files are little-endian; payloads are 32-bit floats.
"""

from __future__ import annotations

import math
import os
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
    # min and max carry any NaN or Inf without a per-voxel temporary.
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
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


def _read_grid(path, magic: bytes, ndim: int) -> tuple[np.ndarray, float]:
    """Read a VOL1 (3 dims) or HMC1 (4 dims) file: magic, little-endian u32
    dims, f32 spacing and the f32 payload; returns (values, spacing), which
    the `Volume3D`/`Heatmap` constructor checks."""
    with open(path, "rb") as f:
        found = _read_exact(f, 4, "magic")
        if found != magic:
            raise BadMagicError(f"{path}: bad magic {found!r}")
        dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "dims"))
        if min(dims) == 0 or math.prod(dims) > MAX_VOXELS:
            raise DimOverflowError(f"{path}: bad dims {dims}")
        (spacing,) = struct.unpack("<f", _read_exact(f, 4, "spacing"))
        # Check the size before allocating: a header may claim more than the file holds.
        left, nbytes = os.fstat(f.fileno()).st_size - f.tell(), 4 * math.prod(dims)
        if left < nbytes:
            raise TruncatedFileError("file truncated while reading payload")
        if left > nbytes:
            raise TruncatedFileError(f"{path}: trailing bytes after payload")
        values = np.empty(dims, dtype="<f4")
        if f.readinto(values) != nbytes:
            raise TruncatedFileError("file truncated while reading payload")
    return values, spacing


def _write_grid(path, magic: bytes, values: np.ndarray, spacing: float) -> None:
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack(f"<{values.ndim}I", *values.shape))
        f.write(struct.pack("<f", np.float32(spacing)))
        f.write(np.ascontiguousarray(values, dtype="<f4"))


def read_volume(path) -> Volume3D:
    """Read a VOL1 file; rejects bad magic, dim overflow, truncation, NaN/Inf."""
    return Volume3D(*_read_grid(path, VOL_MAGIC, 3))


def write_volume(vol: Volume3D, path) -> None:
    """Write a VOL1 file; read_volume(write_volume(v)) is bit-exact."""
    _write_grid(path, VOL_MAGIC, vol.values, vol.spacing)


def read_heatmap(path) -> Heatmap:
    """Read an HMC1 file (VOL1 plus a leading channel-count field)."""
    return Heatmap(*_read_grid(path, HEATMAP_MAGIC, 4))


def write_heatmap(hm: Heatmap, path) -> None:
    _write_grid(path, HEATMAP_MAGIC, hm.data, hm.spacing)


def pad_volume(vol: Volume3D, pad_before: tuple[int, int, int], pad_after: tuple[int, int, int]) -> Volume3D:
    """Reflect-pad per axis (z, y, x), mirroring without repeating the edge."""
    if any(p < 0 for p in pad_before + pad_after):
        raise ValueError("pads must be >= 0")
    pads = tuple(zip(pad_before, pad_after))
    for n, (pb, pa) in zip(vol.dims, pads):
        if max(pb, pa) >= n:
            raise ValueError(f"reflect pad {max(pb, pa)} too large for axis of length {n}")
    return Volume3D(np.pad(vol.values, pads, mode="reflect"), vol.spacing)
