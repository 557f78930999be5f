"""Building blocks for the toy 2.5D U-Nets: forward passes with cached
activations and hand-derived backward passes.

Tensors are (channels, depth, height, width) dense arrays. Layers carry their
parameters and accumulated gradients in dicts so optimizers and checkpointing
can address them by name. `forward(x)` (train=True) caches what the matching
backward needs, and every backward requires that cache. `forward(x,
train=False)` is the inference mode: it returns the same values but writes no
attribute on any layer, so it keeps no activations alive, a following backward
raises `MissingForwardCacheError`, and one net can serve several threads.

One anisotropic `Conv` serves as per-slice 2D conv, strided depth conv and
dense (dilated) 3D conv; the rest are depth pooling, pixel shuffle, nearest
upsampling, SiLU, scSE attention and the multi-scale fusion block.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class MissingForwardCacheError(RuntimeError):
    pass


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def silu(x):
    return x * sigmoid(x)


def silu_grad(x):
    s = sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _init_uniform(rng, shape, fan_in, dtype):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Base: parameter/grad dicts plus a one-slot forward cache, which only a
    training forward (train=True) fills."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def zero_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _take_cache(self):
        if self._cache is None:
            raise MissingForwardCacheError(f"{type(self).__name__}: backward before forward")
        cache, self._cache = self._cache, None
        return cache

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv(Layer):
    """Same-padded cross-correlation with a per-axis (depth, height, width)
    kernel and stride and one dilation for all axes.

    Padding is dilation * (k // 2) per axis and the output extent is
    ceil(n / stride), so (1, k, k) is a per-slice 2D conv, (k, 1, 1) a
    depth-only conv and (k, k, k) a dense 3D conv. The stored weight drops the
    unit axes of an anisotropic kernel: (cout, cin, k, k) for (1, k, k) and
    (cout, cin, k) for (k, 1, 1); cubic kernels keep all three axes.
    """

    def __init__(self, cin, cout, kernel, stride=(1, 1, 1), dilation=1, rng=None, dtype=np.float32):
        super().__init__()
        if any(k % 2 == 0 for k in kernel):
            raise ValueError("kernel sizes must be odd")
        self.cin, self.cout, self.dilation = cin, cout, dilation
        self.kernel, self.stride = tuple(kernel), tuple(stride)
        self.pad = tuple(dilation * (k // 2) for k in self.kernel)
        cubic = len(set(self.kernel)) == 1
        stored = self.kernel if cubic else tuple(k for k in self.kernel if k > 1)
        fan_in = cin * math.prod(self.kernel)
        self.params["weight"] = _init_uniform(rng, (cout, cin) + stored, fan_in, dtype)
        self.params["bias"] = np.zeros(cout, dtype=dtype)
        self.zero_grads()

    def _taps(self, out):
        """Each kernel tap with the strided slice of the padded input that it
        multiplies into the (out)-shaped output grid."""
        dil = self.dilation
        for tap in itertools.product(*(range(k) for k in self.kernel)):
            yield (slice(None), slice(None)) + tap, (slice(None),) + tuple(
                slice(t * dil, t * dil + s * (o - 1) + 1, s) for t, s, o in zip(tap, self.stride, out)
            )

    def forward(self, x, train=True):
        if x.shape[0] != self.cin:
            raise ValueError(f"expected {self.cin} channels, got {x.shape[0]}")
        (pd, ph, pw), (_, d, h, w) = self.pad, x.shape
        dp, hp, wp = d + 2 * pd, h + 2 * ph, w + 2 * pw
        # Each channel row of `flat` runs 2 * (ph * wp + pw) zeros past the
        # padded input, so every shifted slice in _shifted_gemm stays in bounds.
        flat = np.zeros((self.cin, dp * hp * wp + 2 * (ph * wp + pw)), dtype=x.dtype)
        xp = flat[:, : dp * hp * wp].reshape(self.cin, dp, hp, wp)
        xp[:, pd : pd + d, ph : ph + h, pw : pw + w] = x
        wgt = self.params["weight"].reshape((self.cout, self.cin) + self.kernel)
        if self.stride == (1, 1, 1):
            y = np.ascontiguousarray(self._shifted_gemm(flat, wgt, (d, hp, wp))[:, :, :h, :w])
        else:
            out = tuple(-(-n // s) for n, s in zip(x.shape[1:], self.stride))
            y = np.zeros((self.cout,) + out, dtype=x.dtype)
            for w_tap, x_tap in self._taps(out):
                y += np.einsum("cdhw,oc->odhw", xp[x_tap], wgt[w_tap], optimize=True)
        y += self.params["bias"][:, None, None, None]
        if train:
            self._cache = (xp, x.shape)
        return y

    def _shifted_gemm(self, flat, wgt, grid):
        """Stride-1 taps on the flattened padded input `flat` (cin, n + tail).

        On the padded (height, width) grid a kernel tap is one constant flat
        offset, so each tap is one product of its (cout, cin) weight with a
        column slice of `flat`, a view. Returns the sum on the (d, hp, wp)
        grid; the caller crops the columns past (h, w).
        """
        _, hp, wp = grid
        n = math.prod(grid)
        acc = np.empty((self.cout, n), dtype=flat.dtype)
        tmp = np.empty_like(acc)
        # With one input channel, matmul leaves BLAS and runs several times
        # slower than a broadcast multiply, which gives the same products.
        product = np.multiply if self.cin == 1 else np.matmul
        taps = itertools.product(*(range(k) for k in self.kernel))
        for i, (a, b, c) in enumerate(taps):
            off = self.dilation * ((a * hp + b) * wp + c)
            product(wgt[:, :, a, b, c], flat[:, off : off + n], out=tmp if i else acc)
            if i:
                acc += tmp
        return acc.reshape((self.cout,) + grid)

    def backward(self, gy):
        xp, xshape = self._take_cache()
        wgt = self.params["weight"].reshape((self.cout, self.cin) + self.kernel)
        gw = self.grads["weight"].reshape(wgt.shape)
        gxp = np.zeros_like(xp)
        for w_tap, x_tap in self._taps(gy.shape[1:]):
            gw[w_tap] += np.einsum("odhw,cdhw->oc", gy, xp[x_tap], optimize=True)
            gxp[x_tap] += np.einsum("odhw,oc->cdhw", gy, wgt[w_tap], optimize=True)
        self.grads["bias"] += gy.sum(axis=(1, 2, 3))
        (pd, ph, pw), (_, d, h, w) = self.pad, xshape
        return gxp[:, pd : pd + d, ph : ph + h, pw : pw + w]


class DepthPool(Layer):
    """Depth average pooling: 'halve' (k2 s2) or 'preserve' (k3 s1 p1, replicate)."""

    def __init__(self, mode: str):
        super().__init__()
        if mode not in ("halve", "preserve"):
            raise ValueError(f"unknown depth pool mode {mode!r}")
        self.mode = mode

    def forward(self, x, train=True):
        c, d, h, w = x.shape
        if self.mode == "halve":
            if d % 2 != 0:
                raise ValueError("halve mode requires even depth")
            if train:
                self._cache = x.shape
            return 0.5 * (x[:, 0::2] + x[:, 1::2])
        idx = np.stack(
            [
                np.clip(np.arange(d) - 1, 0, d - 1),
                np.arange(d),
                np.clip(np.arange(d) + 1, 0, d - 1),
            ]
        )
        if train:
            self._cache = (x.shape, idx)
        return (x[:, idx[0]] + x[:, idx[1]] + x[:, idx[2]]) / 3.0

    def backward(self, gy):
        cache = self._take_cache()
        if self.mode == "halve":
            c, d, h, w = cache
            gx = np.zeros((c, d) + gy.shape[2:], dtype=gy.dtype)
            gx[:, 0::2] = 0.5 * gy
            gx[:, 1::2] = 0.5 * gy
            return gx
        xshape, idx = cache
        gx = np.zeros(xshape, dtype=gy.dtype)
        g3 = gy / 3.0
        for row in idx:
            np.add.at(gx, (slice(None), row), g3)
        return gx


class PixelShuffleHW(Layer):
    """(C*r^2, D, H, W) -> (C, D, rH, rW); pure per-slice rearrangement."""

    def __init__(self, r: int):
        super().__init__()
        self.r = r

    def forward(self, x, train=True):
        r = self.r
        c4, d, h, w = x.shape
        if c4 % (r * r) != 0:
            raise ValueError(f"channels {c4} not divisible by r^2 = {r * r}")
        c = c4 // (r * r)
        y = x.reshape(c, r, r, d, h, w)
        y = y.transpose(0, 3, 4, 1, 5, 2)  # (C, D, H, i, W, j)
        if train:
            self._cache = x.shape
        return np.ascontiguousarray(y.reshape(c, d, h * r, w * r))

    def backward(self, gy):
        xshape = self._take_cache()
        r = self.r
        c4, d, h, w = xshape
        c = c4 // (r * r)
        g = gy.reshape(c, d, h, r, w, r)
        g = g.transpose(0, 3, 5, 1, 2, 4)  # (C, i, j, D, H, W)
        return np.ascontiguousarray(g.reshape(xshape))


def upsample_nearest(x: np.ndarray, factors: tuple[int, int, int]) -> np.ndarray:
    for axis, f in enumerate(factors, start=1):
        if f > 1:
            x = np.repeat(x, f, axis=axis)
    return x


def upsample_nearest_backward(gy: np.ndarray, factors: tuple[int, int, int]) -> np.ndarray:
    fz, fy, fx = factors
    c, d, h, w = gy.shape
    g = gy.reshape(c, d // fz, fz, h // fy, fy, w // fx, fx)
    return g.sum(axis=(2, 4, 6))


class UpsampleNearest(Layer):
    def __init__(self, factors: tuple[int, int, int]):
        super().__init__()
        self.factors = factors

    def forward(self, x, train=True):
        if train:
            self._cache = x.shape
        return upsample_nearest(x, self.factors)

    def backward(self, gy):
        self._take_cache()
        return upsample_nearest_backward(gy, self.factors)


class SiLU(Layer):
    def forward(self, x, train=True):
        if train:
            self._cache = x
        return silu(x)

    def backward(self, gy):
        x = self._take_cache()
        return gy * silu_grad(x)


class SCSEBlock(Layer):
    """Concurrent spatial and channel squeeze-excitation.

    out = x * channel_gate + x * spatial_gate, where the channel gate is a
    two-layer bottleneck over globally averaged features (sigmoid output) and
    the spatial gate is a 1x1x1 convolution with sigmoid.
    """

    def __init__(self, channels, reduction=2, rng=None, dtype=np.float32):
        super().__init__()
        cr = max(1, channels // reduction)
        self.channels = channels
        self.params["fc1_w"] = _init_uniform(rng, (cr, channels), channels, dtype)
        self.params["fc1_b"] = np.zeros(cr, dtype=dtype)
        self.params["fc2_w"] = _init_uniform(rng, (channels, cr), cr, dtype)
        self.params["fc2_b"] = np.zeros(channels, dtype=dtype)
        self.params["sp_w"] = _init_uniform(rng, (channels,), channels, dtype)
        self.params["sp_b"] = np.zeros(1, dtype=dtype)
        self.zero_grads()

    def forward(self, x, train=True):
        if x.shape[0] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[0]}")
        m = x.mean(axis=(1, 2, 3))
        h_pre = self.params["fc1_w"] @ m + self.params["fc1_b"]
        hidden = silu(h_pre)
        g_pre = self.params["fc2_w"] @ hidden + self.params["fc2_b"]
        cgate = sigmoid(g_pre)
        s_pre = np.einsum("cdhw,c->dhw", x, self.params["sp_w"], optimize=True)
        s_pre = s_pre + self.params["sp_b"][0]
        sgate = sigmoid(s_pre)
        if train:
            self._cache = (x, m, h_pre, hidden, cgate, sgate)
        return x * cgate[:, None, None, None] + x * sgate[None]

    def backward(self, gy):
        x, m, h_pre, hidden, cgate, sgate = self._take_cache()
        nvox = x[0].size
        gx = gy * cgate[:, None, None, None] + gy * sgate[None]
        # channel-gate path
        dcg = np.einsum("cdhw,cdhw->c", gy, x, optimize=True)
        dg_pre = dcg * cgate * (1.0 - cgate)
        self.grads["fc2_w"] += np.outer(dg_pre, hidden)
        self.grads["fc2_b"] += dg_pre
        dh = self.params["fc2_w"].T @ dg_pre
        dh_pre = dh * silu_grad(h_pre)
        self.grads["fc1_w"] += np.outer(dh_pre, m)
        self.grads["fc1_b"] += dh_pre
        dm = self.params["fc1_w"].T @ dh_pre
        gx += (dm / nvox)[:, None, None, None]
        # spatial-gate path
        dsg = np.einsum("cdhw->dhw", gy * x)
        ds_pre = dsg * sgate * (1.0 - sgate)
        self.grads["sp_w"] += np.einsum("cdhw,dhw->c", x, ds_pre, optimize=True)
        self.grads["sp_b"] += ds_pre.sum(keepdims=True).reshape(1)
        gx += self.params["sp_w"][:, None, None, None] * ds_pre[None]
        return gx


class FusionBlock(Layer):
    """Multi-scale fusion: upsample all inputs to the finest one, concatenate,
    run parallel dilated 3x3x3 convolutions (dilations 1/2/4), concatenate, and
    project with a 1x1x1 convolution."""

    DILATIONS = (1, 2, 4)

    def __init__(self, in_channels: list[int], mid: int, out: int, rng=None, dtype=np.float32):
        super().__init__()
        if len(in_channels) < 2:
            raise ValueError("fusion needs at least 2 feature maps")
        self.in_channels = list(in_channels)
        cat = sum(in_channels)
        self.branches = [Conv(cat, mid, (3, 3, 3), dilation=dl, rng=rng, dtype=dtype) for dl in self.DILATIONS]
        self.acts = [SiLU() for _ in self.DILATIONS]
        self.proj = Conv(mid * len(self.DILATIONS), out, (1, 1, 1), rng=rng, dtype=dtype)
        self._collect_params()

    def _sublayers(self):
        return [(f"branch{i}", br) for i, br in enumerate(self.branches)] + [("proj", self.proj)]

    def _collect_params(self):
        self.params = {f"{n}.{k}": v for n, layer in self._sublayers() for k, v in layer.params.items()}
        self.zero_grads()

    def zero_grads(self):
        self.grads = {}
        for n, layer in self._sublayers():
            layer.zero_grads()
            self.grads.update((f"{n}.{k}", g) for k, g in layer.grads.items())

    def forward(self, xs: list[np.ndarray], train=True):
        if len(xs) != len(self.in_channels):
            raise ValueError("feature map count mismatch")
        target = max((x.shape[1:] for x in xs), key=lambda s: s[0] * s[1] * s[2])
        factors = []
        ups = []
        for x in xs:
            f = tuple(t // s for t, s in zip(target, x.shape[1:]))
            if any(fi < 1 or fi * s != t for fi, s, t in zip(f, x.shape[1:], target)):
                raise ValueError(f"dims {x.shape[1:]} not an integer divisor of {target}")
            factors.append(f)
            ups.append(upsample_nearest(x, f))
        cat = np.concatenate(ups, axis=0)
        outs = [act.forward(br.forward(cat, train), train) for br, act in zip(self.branches, self.acts)]
        y = self.proj.forward(np.concatenate(outs, axis=0), train)
        if train:
            self._cache = (factors, [x.shape for x in xs], outs[0].shape[0])
        return y

    def backward(self, gy):
        factors, xshapes, mid = self._take_cache()
        gfused = self.proj.backward(gy)
        gcat = None
        for i, (br, act) in enumerate(zip(self.branches, self.acts)):
            g = br.backward(act.backward(gfused[i * mid : (i + 1) * mid]))
            gcat = g if gcat is None else gcat + g
        gxs = []
        c0 = 0
        for f, xshape in zip(factors, xshapes):
            c = xshape[0]
            gxs.append(upsample_nearest_backward(gcat[c0 : c0 + c], f))
            c0 += c
        return gxs
