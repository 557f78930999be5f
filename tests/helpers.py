"""Independent test oracles: brute-force implementations kept deliberately
separate from the library code paths they verify."""

import contextlib
import hashlib
import itertools
import math
import struct

import numpy as np
import pytest


def fd_grad(f, x, h=1e-4):
    """Central finite-difference gradient of scalar f at array x (64-bit)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def brute_rasterize(picks_px, sigma, dims, truncation=3.0):
    """Per-voxel max of truncated Gaussians; picks_px are continuous (z, y, x)."""
    d, h, w = dims
    out = np.zeros(dims, dtype=np.float64)
    for z in range(d):
        for y in range(h):
            for x in range(w):
                best = 0.0
                for cz, cy, cx in picks_px:
                    d2 = (z + 0.5 - cz) ** 2 + (y + 0.5 - cy) ** 2 + (x + 0.5 - cx) ** 2
                    if d2 <= (truncation * sigma) ** 2:
                        best = max(best, math.exp(-d2 / (2.0 * sigma * sigma)))
                out[z, y, x] = best
    return out


def brute_local_maxima(vol, kernel):
    """O(N * k^3) neighborhood scan with the lexicographic plateau tie rule,
    built from shifted comparisons rather than a max filter."""
    d, h, w = vol.shape
    r = kernel // 2
    peaks = []
    for z in range(d):
        for y in range(h):
            for x in range(w):
                v = vol[z, y, x]
                is_peak = True
                for dz in range(-r, r + 1):
                    for dy in range(-r, r + 1):
                        for dx in range(-r, r + 1):
                            nz, ny, nx = z + dz, y + dy, x + dx
                            if not (0 <= nz < d and 0 <= ny < h and 0 <= nx < w):
                                continue
                            nv = vol[nz, ny, nx]
                            if nv > v:
                                is_peak = False
                            elif nv == v and (nz, ny, nx) < (z, y, x):
                                is_peak = False
                        if not is_peak:
                            break
                    if not is_peak:
                        break
                if is_peak:
                    peaks.append(((z, y, x), float(v)))
    return peaks


def brute_conv2d(x2d, kernel):
    """Direct same-padded 2D cross-correlation of one slice with one kernel."""
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x2d, ((ph, ph), (pw, pw)))
    out = np.zeros_like(x2d, dtype=np.float64)
    for y in range(x2d.shape[0]):
        for x in range(x2d.shape[1]):
            out[y, x] = np.sum(xp[y : y + kh, x : x + kw] * kernel)
    return out


def brute_conv3d(x, weight, dilation=1):
    """Direct dense dilated 3D cross-correlation, same padding.

    x: (Cin, D, H, W); weight: (Cout, Cin, k, k, k).
    """
    cout, cin, k, _, _ = weight.shape
    _, d, h, w = x.shape
    half = k // 2
    out = np.zeros((cout, d, h, w), dtype=np.float64)
    for o in range(cout):
        for z in range(d):
            for y in range(h):
                for xx in range(w):
                    acc = 0.0
                    for c in range(cin):
                        for kd in range(k):
                            for kh_ in range(k):
                                for kw_ in range(k):
                                    zz = z + (kd - half) * dilation
                                    yy = y + (kh_ - half) * dilation
                                    ww = xx + (kw_ - half) * dilation
                                    if 0 <= zz < d and 0 <= yy < h and 0 <= ww < w:
                                        acc += x[c, zz, yy, ww] * weight[o, c, kd, kh_, kw_]
                    out[o, z, y, xx] = acc
    return out


def assert_same_bytes(got, want):
    """Two lists of arrays are equal in dtype, shape and bytes."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@contextlib.contextmanager
def per_tap():
    """Run every `Conv` forward that folds no upsample through its per-tap
    loop, the reference for the stacked runs: `conv_geometry` gives such a
    conv no runs. Yields the list of runs that `_stacked` is called with in
    the context, so a test can check that its reference stacked nothing."""
    from tomopick import layers

    geometry, stacked, calls = layers.conv_geometry, layers._stacked, []

    def no_runs(*key):
        g = geometry(*key)
        return g if key[-1] != (1, 1, 1) else g[:-1] + ((),)

    def recorded(wgt, flat, n, runs, phases):
        calls.append(runs)
        return stacked(wgt, flat, n, runs, phases)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers, "conv_geometry", no_runs)
        m.setattr(layers, "_stacked", recorded)
        yield calls


@contextlib.contextmanager
def conv_block(block):
    """Run `Conv` forwards with `block` output columns per stacked product."""
    from tomopick import layers

    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers, "_BLOCK", block)
        yield


@contextlib.contextmanager
def materialized_upsamples(net):
    """Run `net` as the chain of a nearest upsample then a plain conv: each
    decoder conv that folds an upsample hands its factors back to the identity
    upsample slot before it, and takes them again on the way out."""
    moved = [(up, conv, conv.upsample) for up, conv in zip(net.decoder, net.decoder[1:])
             if getattr(conv, "upsample", (1, 1, 1)) != (1, 1, 1)]
    assert moved and all(up.factors == (1, 1, 1) for up, _, _ in moved)
    for up, conv, factors in moved:
        up.factors, conv.upsample = factors, (1, 1, 1)
    try:
        yield
    finally:
        for up, conv, factors in moved:
            up.factors, conv.upsample = (1, 1, 1), factors


def brute_match_class(preds, gts, tau):
    """`metric.match_class` over every prediction-truth pair: the same
    distances, threshold test and greedy (d, pred, gt) order."""
    from tomopick.metric import MatchResult

    candidates = []
    for pi, p in enumerate(preds):
        for gi, g in enumerate(gts):
            d = math.dist(p, g)
            if d <= tau:
                candidates.append((d, pi, gi))
    candidates.sort()
    pred_used = [False] * len(preds)
    gt_used = [False] * len(gts)
    pairs = []
    for d, pi, gi in candidates:
        if not pred_used[pi] and not gt_used[gi]:
            pred_used[pi] = True
            gt_used[gi] = True
            pairs.append((pi, gi, d))
    tp = len(pairs)
    return MatchResult(tp, len(preds) - tp, len(gts) - tp, tuple(pairs))


def optimal_match_tp(preds, gts, tau):
    """Maximum-cardinality, minimum-total-distance matching by exhaustive
    recursion; returns the optimal true-positive count."""
    dists = [
        [math.dist(p, g) for g in gts]
        for p in preds
    ]

    best = [0, math.inf]  # (cardinality, total distance)

    def rec(pi, used, count, total):
        if pi == len(preds):
            if count > best[0] or (count == best[0] and total < best[1]):
                best[0], best[1] = count, total
            return
        rec(pi + 1, used, count, total)  # leave this prediction unmatched
        for gi in range(len(gts)):
            if gi not in used and dists[pi][gi] <= tau:
                rec(pi + 1, used | {gi}, count + 1, total + dists[pi][gi])

    rec(0, frozenset(), 0, 0.0)
    return best[0]


def wts_blocks_start(data: bytes) -> int:
    """Offset of the u32 block count in WTS2 file bytes: after the magic, the u64
    config-text hash, the u32 text length and the text."""
    return 16 + struct.unpack_from("<I", data, 12)[0]


def with_config_text(path, text: bytes, chash: int | None = None) -> None:
    """Put `text` in place of the config text of the WTS2 file at `path`, with its
    SHA-256-based hash as `save_weights` writes it unless `chash` is given."""
    data = path.read_bytes()
    if chash is None:
        chash = int.from_bytes(hashlib.sha256(text).digest()[:8], "little")
    path.write_bytes(data[:4] + struct.pack("<QI", chash, len(text)) + text + data[wts_blocks_start(data):])


def append_wts_block(path, name: str, values) -> None:
    """Append one parameter block to the WTS2 file at `path` and count it in the header."""
    data = bytearray(path.read_bytes())
    at = wts_blocks_start(data)
    struct.pack_into("<I", data, at, struct.unpack_from("<I", data, at)[0] + 1)
    arr, nb = np.ascontiguousarray(values, dtype="<f4"), name.encode()
    data += struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape) + arr.tobytes()
    path.write_bytes(bytes(data))
