"""Building blocks for the toy 2.5D U-Nets: forward passes with cached
activations and hand-derived backward passes.

Tensors are (channels, depth, height, width) dense arrays. A layer keeps its
parameters and gradients in dicts and registers its sub-layers by name, so
optimizers and the WTS2 checkpoint name a parameter by its registry path
(`fusion.branch0.weight`). `forward(x)` (train=True) caches what the matching
backward needs, and every backward requires that cache. `forward(x,
train=False)` is the inference mode: it returns the same values but writes no
attribute on any layer, so it keeps no activations alive, a following backward
raises `MissingForwardCacheError`, and one net can serve several threads.

A training forward keeps one copy of each conv input. A `Conv` caches its
flat row, which for an unpadded stride-1 conv (1x1x1) is its input itself;
the fusion block's three dilated branches share one reference to the
block's input, and an upsampling conv keeps its low-res input, each
rebuilding its padded row in backward. Since a cache can alias a layer's
input, no layer writes into its input.

One anisotropic `Conv` serves as per-slice 2D conv, strided depth conv and
dense (dilated) 3D conv, on a flat phase layout of the padded input for any
stride. Its backward runs one matrix product per kernel tap, and so does the
forward of a conv with one input or output channel or only one-tap runs; any
other forward runs one product per run of taps that share an input slice (a
kernel plane, for stride 1) and block of output columns, with the per-tap
loop's bytes (see `Conv`). A stride-1 `Conv` can also fold in a nearest
upsample: its runs then span whole rows of the low-res input, with one shift
per tap for each output phase. The rest are depth pooling, pixel shuffle,
nearest upsampling, SiLU, scSE attention and the multi-scale fusion block.
"""

from __future__ import annotations

import functools
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
    """Base: parameter/grad dicts, the registry of named sub-layers, and a
    one-slot forward cache, which only a training forward (train=True) fills."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._layers: dict[str, Layer] = {}
        self._cache = None

    def _register(self, name: str, layer: Layer) -> Layer:
        self._layers[name] = layer
        return layer

    def _named(self, attr: str) -> dict[str, np.ndarray]:
        """This layer's `params` or `grads` entries, then each sub-layer's as
        "<sub-layer>.<name>", recursively."""
        out = dict(getattr(self, attr))
        for lname, layer in self._layers.items():
            out.update((f"{lname}.{k}", v) for k, v in layer._named(attr).items())
        return out

    def named_params(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def named_grads(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def zero_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        for layer in self._layers.values():
            layer.zero_grads()

    def _take_cache(self):
        if self._cache is None:
            raise MissingForwardCacheError(f"{type(self).__name__}: backward before forward")
        cache, self._cache = self._cache, None
        return cache

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


# Output columns per stacked product. Sweep, variant-B 16x64x64 window forward
# (medians of 2-5): 2048 180 ms, 4096 133, 8192 138, 16384 150, unblocked 186.
_BLOCK = 4096
# Stacked products are a multiple of this wide, so none ends in a partial BLAS
# column tile: OpenBLAS's dgemm rounds those differently from full tiles.
_TILE = 16


@functools.lru_cache(maxsize=256)
def conv_geometry(cin, cout, kernel, stride, pad, dilation, dims, factors):
    """A `Conv`'s geometry for input extents `dims`: output extents, output grid
    (out_d, lh, lw) and its size, the phase view (cin, sd, sh, sw, ld, lh, lw)
    of the flat row's head, the row length, each tap's weight index and offset,
    each phase's view index with the input slice it holds, and the runs that
    the forward stacks, empty where `Conv` selects the per-tap loop.

    A run is a maximal stretch of consecutive taps that read the same phase
    grid at the same depth shift in every output phase (one phase, unless the
    conv folds upsampling `factors`; see `Conv`). It holds its taps' weight
    indices, its least offset, each output phase's tap shifts from it, and the
    flat output columns whose planes read input in some output phase; the
    other planes read only zero padding."""
    out = tuple(-(-n // s) for n, s in zip(dims, stride))
    ld, lh, lw = (-(-(n + 2 * p) // s) for n, p, s in zip(dims, pad, stride))
    axes = []
    for n, p0, s in zip(dims, pad, stride):
        spans = [(p, -(-(p0 - p) // s), -(-(n + p0 - p) // s)) for p in range(s)]
        axes.append([(p, slice(q0, q1), slice(q0 * s + p - p0, n, s)) for p, q0, q1 in spans])
    phases = tuple(((slice(None), pd, ph, pw, qd, qh, qw), (slice(None), xd, xh, xw))
                   for (pd, qd, xd), (ph, qh, xh), (pw, qw, xw) in itertools.product(*axes))
    # Each tap's (q, p) per axis for each output phase o, as (axis, output phase, tap) arrays.
    pad3, f3, s3 = (np.reshape(v, (3, 1, 1)) for v in (pad, factors, stride))
    o, t = np.indices(factors).reshape(3, -1, 1), np.indices(kernel).reshape(3, 1, -1)
    q, p = np.divmod((o + t * dilation - pad3) // f3 + pad3, s3)
    offs = np.ravel_multi_index((*p, *q), stride + (ld, lh, lw)).T.tolist()  # [tap][output phase]
    keys = np.stack((*p, q[0]), -1).transpose(1, 0, 2).tolist()  # (pd, ph, pw, qd) likewise
    index = [(slice(None), slice(None)) + tap for tap in itertools.product(*map(range, kernel))]
    n = out[0] * lh * lw
    runs = []
    for key, run in itertools.groupby(zip(keys, index, offs), key=lambda r: r[0]):
        _, run_index, run_offs = zip(*run)
        base = min(map(min, run_offs))
        z = [(max(axes[0][pd][1].start - qd, 0), min(axes[0][pd][1].stop - qd, out[0])) for pd, *_, qd in key]
        z0, z1 = min(z0 for z0, _ in z), max(z1 for _, z1 in z)  # the planes that hold input
        runs.append((run_index, base, tuple(tuple(off - base for off in shifts) for shifts in zip(*run_offs)),
                     (z0 * lh * lw, max(z0, z1) * lh * lw)))
    if factors == (1, 1, 1) and (cin == 1 or cout == 1 or all(len(run[0]) == 1 for run in runs)):
        runs = []
    tail = _TILE - 1 if runs else 0  # zeros for a stacked product's last tile
    size = max(ld * lh * lw * math.prod(stride), max(map(max, offs)) + n + tail)
    return (out, (out[0], lh, lw), n, (cin,) + stride + (ld, lh, lw), size,
            tuple(zip(index, (off[0] for off in offs))), phases, tuple(runs))


def _stacked(wgt, flat, n, runs, phases):
    """The forward's (phases, cout, n) tap sums, one product per run and column
    block into one reused buffer, whose rows are added tap by tap into each
    output phase's sums (see `Conv`). A fold (phases > 1) has one block."""
    cout = wgt.shape[0]
    block = _BLOCK if phases == 1 else n
    stacks = [(np.concatenate([wgt[tap] for tap in index]), base, shifts, max(map(max, shifts)), cols)
              for index, base, shifts, cols in runs]
    acc = np.zeros((phases, cout, n), dtype=flat.dtype)
    buf = np.empty(max(len(w) * (min(block, n) + span + _TILE) for w, _, _, span, _ in stacks), flat.dtype)
    for j in range(0, n, block):
        for w, base, shifts, span, (c0, c1) in stacks:
            a, b = max(j, c0), min(j + block, c1)
            if a >= b:
                continue
            width = -(-(b - a + span) // _TILE) * _TILE
            prod = buf[: len(w) * width].reshape(len(w), width)
            np.matmul(w, flat[:, base + a : base + a + width], out=prod)
            for sums, tap_shifts in zip(acc, shifts):
                for i, shift in enumerate(tap_shifts):
                    sums[:, a:b] += prod[i * cout : (i + 1) * cout, shift : shift + b - a]
    return acc


class Conv(Layer):
    """Same-padded cross-correlation with a per-axis (depth, height, width)
    kernel and stride and one dilation for all axes.

    Padding is dilation * (k // 2) per axis and the output extent is
    ceil(n / stride), so (1, k, k) is a per-slice 2D conv, (k, 1, 1) a
    depth-only conv and (k, k, k) a dense 3D conv. The stored weight drops the
    unit axes of an anisotropic kernel: (cout, cin, k, k) for (1, k, k) and
    (cout, cin, k) for (k, 1, 1); cubic kernels keep all three axes.

    Phase layout: each stride-s axis of the padded input splits into s phases
    (every s-th element), and the phase grids lie end to end in one flat row
    per channel (for stride 1, the padded input), followed by the zeros that
    keep every tap's slice in bounds; a stride-1 conv that needs neither pads
    nor zeros (1x1x1) uses its input as the row, with no copy. Tap t of an
    axis reads phase p at shift q, (q, p) = divmod((o + t * dilation - pad) //
    f + pad, s), so each tap is one column offset into the row; o = 0 and
    f = 1 but in a fold (below). The backward runs one (cout, cin) product per
    tap and its adjoint over the same offsets, and so does the forward,
    cropped once, where it selects no runs.

    Other forwards take the kn2row form of convolution as GEMM (Vasudevan,
    Anderson and Gregg, ASAP 2017; `_stacked`): a run's taps, which read one
    phase grid at one depth shift (for stride 1, a kernel plane), stack their
    weights along M into one (taps * cout, cin) product per block of `_BLOCK`
    output columns, and each tap's rows are added at its shift. At K = cin of
    16 or 80 BLAS packs the input slice once per product, so this packs it
    once per plane instead of once per tap. The bytes are the per-tap loop's:
    stacking along M and blocking along N change no element's k-order, each
    product spans whole BLAS column tiles, tap sums are added in tap order
    into zeros, and a product skipped because its input plane is padding
    would be an exact +0.0, which changes no sum.

    The selection depends only on the conv's shape, not its grid size: a run
    of more than one tap and more than one input and output channel (one
    input channel is a broadcast multiply, one output channel a BLAS gemv).
    The nets' stems, 1x1x1 convs and strided convs (whose runs are single
    taps) keep the per-tap loop at any window; their 3x3x3 convs stack.

    A fold of `upsample` factors f (stride 1) reads upsample_nearest(x, f)
    without building it (sub-pixel convolution, Shi et al., CVPR 2016): output
    f * q + o reads x's padded row at the shift above, so each output phase o
    is a conv over x. A fold always stacks, with one block: each output phase
    adds a run's tap rows at its own shifts into its own sums, which go to its
    strided slots. With more than one output channel (one is a gemv in the
    chain) that has the bytes of upsample_nearest then the conv, and the
    backward is that chain's.

    A training forward caches (row, input shape), or (None, input) where the
    row would cost more memory than the input: a fold caches its low-res
    input, and `FusionBlock` sets its branches' caches to its own input. The
    backward then rebuilds the row, which gives the same bytes.
    """

    def __init__(self, cin, cout, kernel, stride=(1, 1, 1), dilation=1, rng=None, dtype=np.float32, upsample=(1, 1, 1)):
        super().__init__()
        if any(k % 2 == 0 for k in kernel):
            raise ValueError("kernel sizes must be odd")
        self.cin, self.cout, self.dilation = cin, cout, dilation
        self.kernel, self.stride, self.upsample = tuple(kernel), tuple(stride), tuple(upsample)
        if self.upsample != (1, 1, 1) and self.stride != (1, 1, 1):
            raise ValueError("an upsampling conv has stride 1")
        self.pad = tuple(dilation * (k // 2) for k in self.kernel)
        cubic = len(set(self.kernel)) == 1
        stored = self.kernel if cubic else tuple(k for k in self.kernel if k > 1)
        fan_in = cin * math.prod(self.kernel)
        self.params["weight"] = _init_uniform(rng, (cout, cin) + stored, fan_in, dtype)
        self.params["bias"] = np.zeros(cout, dtype=dtype)
        self.zero_grads()

    def _geometry(self, dims, factors=(1, 1, 1)):
        return conv_geometry(self.cin, self.cout, self.kernel, self.stride, self.pad, self.dilation, dims, factors)

    def _row(self, x, factors=(1, 1, 1)):
        """x's flat phase row (see above) and the geometry, folding `factors`.
        A row of one phase with no padding or tail is x itself, reshaped: a
        view of x when x is C-contiguous."""
        geometry = _, _, _, view, size, _, phases, _ = self._geometry(x.shape[1:], factors)
        if len(phases) == 1 and size == x[0].size:
            return x.reshape(self.cin, size), geometry
        flat = np.zeros((self.cin, size), dtype=x.dtype)
        grids = flat[:, : math.prod(view[1:])].reshape(view)
        for phase, src in phases:
            grids[phase] = x[src]
        return flat, geometry

    def forward(self, x, train=True):
        if x.shape[0] != self.cin:
            raise ValueError(f"expected {self.cin} channels, got {x.shape[0]}")
        flat, (out, grid, n, _, _, taps, _, runs) = self._row(x, self.upsample)
        wgt = self.params["weight"].reshape((self.cout, self.cin) + self.kernel)
        if runs:
            acc = _stacked(wgt, flat, n, runs, math.prod(self.upsample))
        else:
            acc = np.empty((self.cout, n), dtype=x.dtype)
            tmp = np.empty_like(acc)
            # With one input channel, matmul leaves BLAS and runs several times
            # slower than a broadcast multiply, which gives the same products.
            product = np.multiply if self.cin == 1 else np.matmul
            for i, (tap, off) in enumerate(taps):
                product(wgt[tap], flat[:, off : off + n], out=tmp if i else acc)
                if i:
                    acc += tmp
            del tmp  # lets the output below reuse this buffer's memory
        acc = acc.reshape((-1, self.cout) + grid)[..., : out[1], : out[2]]
        if self.upsample == (1, 1, 1):
            y = np.ascontiguousarray(acc[0])
        else:  # each output phase's sums go to its strided slots
            y = np.empty((self.cout,) + tuple(m * f for m, f in zip(out, self.upsample)), dtype=x.dtype)
            for sums, phase in zip(acc, itertools.product(*map(range, self.upsample))):
                y[(slice(None),) + tuple(slice(p, None, f) for p, f in zip(phase, self.upsample))] = sums
        y += self.params["bias"][:, None, None, None]
        if train:
            self._cache = (flat, x.shape) if self.upsample == (1, 1, 1) else (None, x)
        return y

    def backward(self, gy):
        flat, xshape = self._take_cache()
        if flat is None:  # the input in place of its row (a fold's is low-res): rebuild the row
            x = upsample_nearest(xshape, self.upsample)
            flat, xshape = self._row(x)[0], x.shape
        out, grid, n, view, _, taps, phases, _ = self._geometry(xshape[1:])
        g = np.zeros((self.cout, n), dtype=flat.dtype)
        g.reshape((self.cout,) + grid)[:, :, : out[1], : out[2]] = gy
        wgt = self.params["weight"].reshape((self.cout, self.cin) + self.kernel)
        gw = self.grads["weight"].reshape(wgt.shape)
        gflat = np.zeros_like(flat)
        tmp = np.empty((self.cin, n), dtype=flat.dtype)
        for tap, off in taps:
            gw[tap] += g @ flat[:, off : off + n].T
            np.matmul(wgt[tap].T, g, out=tmp)
            gflat[:, off : off + n] += tmp
        self.grads["bias"] += gy.sum(axis=(1, 2, 3))
        gx = np.empty(xshape, dtype=flat.dtype)
        grids = gflat[:, : math.prod(view[1:])].reshape(view)
        for phase, src in phases:
            gx[src] = grids[phase]
        return gx if self.upsample == (1, 1, 1) else upsample_nearest_backward(gx, self.upsample)


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
        idx = np.clip(np.arange(d) + np.array([[-1], [0], [1]]), 0, d - 1)
        if train:
            self._cache = (x.shape, idx)
        return (x[:, idx[0]] + x[:, idx[1]] + x[:, idx[2]]) / 3.0

    def backward(self, gy):
        cache = self._take_cache()
        if self.mode == "halve":
            return np.repeat(0.5 * gy, 2, axis=1)
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
    if tuple(factors) == (1, 1, 1):
        return gy  # an identity upsample: no copy
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
        if not train:
            return silu(x)  # one expression: numpy reuses the sigmoid's buffer for the product
        s = sigmoid(x)  # the cache is silu_grad(x) from this sigmoid; the output takes its buffer
        self._cache = s * (1.0 + x * (1.0 - s))
        return np.multiply(x, s, out=s)

    def backward(self, gy):
        return gy * self._take_cache()


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
        s_pre = np.einsum("cdhw,c->dhw", x, self.params["sp_w"], optimize=True) + self.params["sp_b"][0]
        sgate = sigmoid(s_pre)
        if train:
            self._cache = (x, m, h_pre, hidden, cgate, sgate)
        return x * cgate[:, None, None, None] + x * sgate[None]

    def backward(self, gy):
        x, m, h_pre, hidden, cgate, sgate = self._take_cache()
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
        gx += (dm / x[0].size)[:, None, None, None]
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
    project with a 1x1x1 convolution.

    In training the three branches cache one reference to the concatenated
    input, not three padded rows (each larger than the input), and each
    branch's backward rebuilds its row from it (see `Conv`)."""

    DILATIONS = (1, 2, 4)

    def __init__(self, in_channels: list[int], mid: int, out: int, rng=None, dtype=np.float32):
        super().__init__()
        if len(in_channels) < 2:
            raise ValueError("fusion needs at least 2 feature maps")
        self.in_channels = list(in_channels)
        cat = sum(in_channels)
        reg = self._register
        self.branches = [reg(f"branch{i}", Conv(cat, mid, (3, 3, 3), dilation=dl, rng=rng, dtype=dtype))
                         for i, dl in enumerate(self.DILATIONS)]
        self.acts = [reg(f"act{i}", SiLU()) for i in range(len(self.DILATIONS))]
        self.proj = reg("proj", Conv(mid * len(self.DILATIONS), out, (1, 1, 1), rng=rng, dtype=dtype))

    def forward(self, xs: list[np.ndarray], train=True):
        if len(xs) != len(self.in_channels):
            raise ValueError("feature map count mismatch")
        target = max((x.shape[1:] for x in xs), key=lambda s: s[0] * s[1] * s[2])
        factors = [tuple(t // s for t, s in zip(target, x.shape[1:])) for x in xs]
        for x, f in zip(xs, factors):
            if any(fi < 1 or fi * s != t for fi, s, t in zip(f, x.shape[1:], target)):
                raise ValueError(f"dims {x.shape[1:]} not an integer divisor of {target}")
        cat = np.concatenate([upsample_nearest(x, f) for x, f in zip(xs, factors)], axis=0)
        outs = [act.forward(br.forward(cat, False), train) for br, act in zip(self.branches, self.acts)]
        y = self.proj.forward(np.concatenate(outs, axis=0), train)
        if train:
            self._cache = factors
            for br in self.branches:  # one shared input, not three padded rows
                br._cache = (None, cat)
        return y

    def backward(self, gy):
        factors = self._take_cache()
        gfused = np.split(self.proj.backward(gy), len(self.branches))
        gcat = sum(br.backward(act.backward(g)) for br, act, g in zip(self.branches, self.acts, gfused))
        gxs = np.split(gcat, np.cumsum(self.in_channels)[:-1])
        return [upsample_nearest_backward(g, f) for g, f in zip(gxs, factors)]
