"""Toy 2.5D U-Net variants and the WTS1 weight checkpoint format.

Variant A: per-slice 2D stages with depth halving between them, a 3D-conv
bottleneck at 1/4 resolution, then nearest depth upsampling and an HxW pixel
shuffle back to full window resolution.

Variant B: three per-slice 2D stages (depth halved twice, then preserved with
k3 s1 p1 depth pooling), multi-scale dilated fusion of the three stage
outputs, and a decoder of 3x3x3 conv + scSE upsampling blocks.

These are deliberately tiny stand-ins for the pretrained 2D backbones used at
full scale; widths and depths are configuration, not a reconstruction.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import layers as L

# Conv kernels and strides, per axis (depth, height, width).
SLICE, DEPTH, CUBE, POINT = (1, 3, 3), (3, 1, 1), (3, 3, 3), (1, 1, 1)
HALVE_HW, HALVE_D = (1, 2, 2), (2, 1, 1)


@dataclass(frozen=True)
class NetConfig:
    variant: str = "A"  # "A" or "B"
    in_depth: int = 16
    window_hw: int = 128
    class_count: int = 1
    widths: tuple[int, ...] = (8, 16, 32)
    decoder_width: int = 16
    seed: int = 0
    dtype: str = "float32"
    strided_depth_pool: bool = False  # ablation: replace depth halving with strided conv

    def __post_init__(self):
        if self.variant not in ("A", "B"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if any(w < 1 for w in self.widths):
            raise ValueError("all stage widths must be >= 1")
        if self.decoder_width < 1:
            raise ValueError("decoder_width must be >= 1")
        need = 3 if self.variant == "A" else 4
        if len(self.widths) < need:
            raise ValueError(f"variant {self.variant} needs {need} stage widths")
        if self.in_depth % 4 != 0:
            raise ValueError("in_depth must be divisible by 4")
        if self.window_hw % 8 != 0:
            raise ValueError("window_hw must be divisible by 8")
        if self.strided_depth_pool and self.variant != "A":
            raise ValueError("strided_depth_pool applies to variant A only")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


def config_hash(cfg: NetConfig) -> int:
    canon = repr(
        (
            cfg.variant,
            cfg.in_depth,
            cfg.window_hw,
            cfg.class_count,
            tuple(cfg.widths),
            cfg.decoder_width,
            cfg.strided_depth_pool,
        )
    )
    return int.from_bytes(hashlib.sha256(canon.encode()).digest()[:8], "little")


def _chain(h, train, *layers):
    for layer in layers:
        h = layer.forward(h, train)
    return h


def _unchain(g, *layers):
    """Backward through a `_chain` of the same layers, last layer first."""
    for layer in reversed(layers):
        g = layer.backward(g)
    return g


class ToyNet(L.Layer):
    """The net's layers, registered by name; checkpoint state and input checks."""

    def __init__(self, config: NetConfig):
        super().__init__()
        self.config = config

    def set_params(self, state: dict[str, np.ndarray]):
        params = self.named_params()
        if set(state) != set(params):
            missing = set(params) ^ set(state)
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for k, v in state.items():
            if params[k].shape != v.shape:
                raise ValueError(f"{k}: shape {v.shape} != {params[k].shape}")
            params[k][...] = v

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 3:
            x = x[None]
        cfg = self.config
        if x.shape != (1, cfg.in_depth, cfg.window_hw, cfg.window_hw):
            raise ValueError(
                f"expected window (1, {cfg.in_depth}, {cfg.window_hw}, {cfg.window_hw}), "
                f"got {x.shape}"
            )
        return x.astype(cfg.np_dtype, copy=False)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """(D, H, W) or (1, D, H, W) window -> (C, D, H, W) heatmap.
        train=False keeps no activations (see `layers`), so one net can be
        shared read-only by threads."""
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> None:
        raise NotImplementedError


class VariantANet(ToyNet):
    def __init__(self, config: NetConfig):
        super().__init__(config)
        rng = np.random.Generator(np.random.PCG64(config.seed))
        dt = config.np_dtype
        w0, w1, w2 = config.widths[:3]
        c = config.class_count
        reg = self._register
        strided = config.strided_depth_pool
        self.chain = (
            reg("stem", L.Conv(1, w0, SLICE, rng=rng, dtype=dt)),
            reg("act0", L.SiLU()),
            reg("s1", L.Conv(w0, w1, SLICE, HALVE_HW, rng=rng, dtype=dt)),
            reg("act1", L.SiLU()),
            reg("dp1", L.Conv(w1, w1, DEPTH, HALVE_D, rng=rng, dtype=dt) if strided else L.DepthPool("halve")),
            reg("s2", L.Conv(w1, w2, SLICE, HALVE_HW, rng=rng, dtype=dt)),
            reg("act2", L.SiLU()),
            reg("dp2", L.Conv(w2, w2, DEPTH, HALVE_D, rng=rng, dtype=dt) if strided else L.DepthPool("halve")),
            reg("bott", L.Conv(w2, w2, CUBE, rng=rng, dtype=dt)),
            reg("act3", L.SiLU()),
            reg("up_depth", L.UpsampleNearest((4, 1, 1))),
            reg("head", L.Conv(w2, c * 16, POINT, rng=rng, dtype=dt)),
            reg("shuffle", L.PixelShuffleHW(4)),
        )

    def forward(self, x, train=True):
        return _chain(self._check_input(x), train, *self.chain)

    def backward(self, gy):
        return _unchain(gy, *self.chain)


class VariantBNet(ToyNet):
    # Each decoder conv's nearest-upsample factor, folded into it (`layers.Conv`): dec1.conv
    # reads the fusion grid (1/2 depth, 1/2 HW) and writes the window size. The dec{i}.up
    # slots stay as identity upsamples because the benchmark's layer catalogue names them.
    UP_FACTORS = ((1, 1, 1), (2, 2, 2), (1, 1, 1))

    def __init__(self, config: NetConfig):
        super().__init__(config)
        rng = np.random.Generator(np.random.PCG64(config.seed))
        dt = config.np_dtype
        w0, w1, w2, w3 = config.widths[:4]
        wd = config.decoder_width
        c = config.class_count
        reg = self._register
        # Each stage's output also feeds the fusion block.
        self.stages = (
            (reg("stem", L.Conv(1, w0, SLICE, rng=rng, dtype=dt)), reg("act0", L.SiLU()),
             reg("s1", L.Conv(w0, w1, SLICE, HALVE_HW, rng=rng, dtype=dt)), reg("act1", L.SiLU()),
             reg("dp1", L.DepthPool("halve"))),
            (reg("s2", L.Conv(w1, w2, SLICE, HALVE_HW, rng=rng, dtype=dt)), reg("act2", L.SiLU()),
             reg("dp2", L.DepthPool("halve"))),
            (reg("s3", L.Conv(w2, w3, SLICE, HALVE_HW, rng=rng, dtype=dt)), reg("act3", L.SiLU()),
             reg("dp3", L.DepthPool("preserve"))),
        )
        self.fusion = reg("fusion", L.FusionBlock([w1, w2, w3], wd, wd, rng, dt))
        decoder = []
        for i, f in enumerate(self.UP_FACTORS):
            decoder += [
                reg(f"dec{i}.conv", L.Conv(wd, wd, CUBE, rng=rng, dtype=dt, upsample=f)),
                reg(f"dec{i}.act", L.SiLU()),
                reg(f"dec{i}.scse", L.SCSEBlock(wd, 2, rng, dt)),
                reg(f"dec{i}.up", L.UpsampleNearest((1, 1, 1))),
            ]
        self.decoder = (*decoder, reg("head", L.Conv(wd, c, POINT, rng=rng, dtype=dt)))

    def forward(self, x, train=True):
        h, features = self._check_input(x), []
        for stage in self.stages:
            h = _chain(h, train, *stage)
            features.append(h)
        return _chain(self.fusion.forward(features, train), train, *self.decoder)

    def backward(self, gy):
        gfeatures = self.fusion.backward(_unchain(gy, *self.decoder))
        g = 0
        for stage, gf in zip(reversed(self.stages), reversed(gfeatures)):
            g = _unchain(g + gf, *stage)
        return g


def build_net(config: NetConfig) -> ToyNet:
    return VariantANet(config) if config.variant == "A" else VariantBNet(config)


# --- WTS1 checkpoint ---------------------------------------------------------
#
# magic "WTS1", little-endian u64 config hash, u32 block count, then per block:
# u32 name length, utf-8 name, u32 ndim, u32 dims, raw little-endian f32 data.

WTS_MAGIC = b"WTS1"


class CheckpointError(Exception):
    pass


def save_weights(path, net: ToyNet) -> None:
    params = net.named_params()
    with open(path, "wb") as f:
        f.write(WTS_MAGIC)
        f.write(struct.pack("<Q", config_hash(net.config)))
        f.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_weights(path, config: NetConfig) -> dict[str, np.ndarray]:
    def take(f, n, what):
        # Check the size before reading: a block header may claim more than the file holds.
        buf = f.read(n) if n <= os.fstat(f.fileno()).st_size - f.tell() else b""
        if len(buf) != n:
            raise CheckpointError(f"{path}: truncated while reading {what}")
        return buf

    with open(path, "rb") as f:
        if take(f, 4, "magic") != WTS_MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        (chash,) = struct.unpack("<Q", take(f, 8, "config hash"))
        if chash != config_hash(config):
            raise CheckpointError(f"{path}: checkpoint was written for a different net config")
        (count,) = struct.unpack("<I", take(f, 4, "block count"))
        state = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", take(f, 4, "name length"))
            name = take(f, nlen, "name").decode()
            (ndim,) = struct.unpack("<I", take(f, 4, "ndim"))
            shape = struct.unpack(f"<{ndim}I", take(f, 4 * ndim, "dims"))
            data = np.frombuffer(take(f, 4 * math.prod(shape), "data"), dtype="<f4").reshape(shape)
            state[name] = data.astype(np.float32)
        if f.read(1) != b"":
            raise CheckpointError(f"{path}: trailing bytes")
    return state


def load_net(path, config: NetConfig) -> ToyNet:
    net = build_net(config)
    state = load_weights(path, config)
    net.set_params({k: v.astype(config.np_dtype) for k, v in state.items()})
    return net
