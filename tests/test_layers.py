"""Network building blocks against hand cases and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_bytes, brute_conv2d, brute_conv3d, conv_block, fd_grad, per_tap
from tomopick import layers as L

RNG = np.random.default_rng(2024)


def rng64():
    return np.random.Generator(np.random.PCG64(7))


def layer_fd_check(layer, x, rel_tol=1e-6, h=1e-5):
    """Check dJ/dparams and dJ/dx for J = sum(forward(x) * G) in float64."""
    g_up = np.random.default_rng(99).normal(size=layer.forward(x.copy()).shape)
    layer._cache = None

    def scalar(xin):
        return float(np.sum(layer.forward(xin) * g_up))

    layer.zero_grads()
    layer.forward(x.copy())
    gx = layer.backward(g_up)
    fd_x = fd_grad(scalar, x, h=h)
    np.testing.assert_allclose(gx, fd_x, rtol=rel_tol, atol=1e-7)
    for name, p in layer.params.items():
        analytic = layer.grads[name]

        def scalar_p(pv, name=name, p=p):
            p[...] = pv
            return scalar(x.copy())

        orig = p.copy()
        fd_p = fd_grad(scalar_p, orig.astype(np.float64), h=h)
        p[...] = orig
        np.testing.assert_allclose(analytic, fd_p, rtol=rel_tol, atol=1e-7,
                                   err_msg=f"param {name}")


# --- convolution: per-slice 2D kernels (1, 3, 3) ----------------------------


def slice_conv(cin, cout, stride=1):
    return L.Conv(cin, cout, (1, 3, 3), (1, stride, stride), rng=rng64(), dtype=np.float64)


def test_conv2d_identity_kernel():
    conv = slice_conv(2, 2)
    conv.params["weight"][...] = 0.0
    for c in range(2):
        conv.params["weight"][c, c, 1, 1] = 1.0
    conv.params["bias"][...] = 0.0
    x = RNG.normal(size=(2, 3, 5, 5))
    np.testing.assert_allclose(conv.forward(x), x)


def test_conv2d_ones_kernel_plateau():
    conv = slice_conv(1, 1)
    conv.params["weight"][...] = 1.0
    conv.params["bias"][...] = 0.0
    x = np.zeros((1, 1, 7, 7))
    x[0, 0, 3, 3] = 1.0
    y = conv.forward(x)
    expected = np.zeros((7, 7))
    expected[2:5, 2:5] = 1.0
    np.testing.assert_allclose(y[0, 0], expected)


def test_conv2d_equals_per_slice_oracle():
    conv = slice_conv(2, 3)
    x = RNG.normal(size=(2, 4, 6, 6))
    y = conv.forward(x)
    for d in range(4):
        for o in range(3):
            expected = sum(
                brute_conv2d(x[c, d], conv.params["weight"][o, c]) for c in range(2)
            ) + conv.params["bias"][o]
            np.testing.assert_allclose(y[o, d], expected, atol=1e-10)


def test_conv2d_stride2_shape():
    conv = slice_conv(1, 4, 2)
    y = conv.forward(RNG.normal(size=(1, 2, 8, 8)))
    assert y.shape == (4, 2, 4, 4)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_gradients(stride):
    conv = slice_conv(2, 3, stride)
    layer_fd_check(conv, RNG.normal(size=(2, 2, 4, 4)))


# --- depth pooling ---------------------------------------------------------


def test_depth_halve_pairwise_means():
    x = np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 4, 1, 1)
    y = L.DepthPool("halve").forward(x)
    assert y.reshape(-1).tolist() == [2.0, 6.0]


def test_depth_preserve_replicate_ends():
    x = np.array([1.0, 3.0, 5.0]).reshape(1, 3, 1, 1)
    y = L.DepthPool("preserve").forward(x)
    np.testing.assert_allclose(y.reshape(-1), [5.0 / 3.0, 3.0, 13.0 / 3.0])


def test_depth_preserve_constant_fixed_point():
    x = np.full((3, 5, 2, 2), 4.25)
    np.testing.assert_allclose(L.DepthPool("preserve").forward(x), x)


def test_depth_halve_odd_depth_rejected():
    with pytest.raises(ValueError):
        L.DepthPool("halve").forward(np.zeros((1, 3, 2, 2)))


@pytest.mark.parametrize("mode", ["halve", "preserve"])
def test_depth_pool_gradients(mode):
    layer_fd_check(L.DepthPool(mode), RNG.normal(size=(2, 4, 3, 3)))


def test_depth_preserve_commutes_with_conv_on_depth_constant():
    conv = slice_conv(2, 2)
    pool = L.DepthPool("preserve")
    slice2d = RNG.normal(size=(2, 1, 5, 5))
    x = np.repeat(slice2d, 4, axis=1)
    a = conv.forward(pool.forward(x))
    b = pool.forward(conv.forward(x))
    np.testing.assert_allclose(a, b, atol=1e-12)


# --- convolution: depth (3, 1, 1), dense (3, 3, 3) and 1x1x1 kernels -------


def depth_conv(c):
    return L.Conv(c, c, (3, 1, 1), (2, 1, 1), rng=rng64(), dtype=np.float64)


def cube_conv(cin, cout, ksize=3, dilation=1):
    return L.Conv(cin, cout, (ksize,) * 3, dilation=dilation, rng=rng64(), dtype=np.float64)


def test_depth_strided_conv_halves_depth():
    conv = depth_conv(3)
    y = conv.forward(RNG.normal(size=(3, 8, 4, 4)))
    assert y.shape == (3, 4, 4, 4)
    layer_fd_check(conv, RNG.normal(size=(3, 4, 3, 3)))


def test_conv3d_identity_kernel():
    conv = cube_conv(2, 2)
    conv.params["weight"][...] = 0.0
    for c in range(2):
        conv.params["weight"][c, c, 1, 1, 1] = 1.0
    conv.params["bias"][...] = 0.0
    x = RNG.normal(size=(2, 4, 4, 4))
    np.testing.assert_allclose(conv.forward(x), x)


def test_conv3d_ones_kernel_cube():
    conv = cube_conv(1, 1)
    conv.params["weight"][...] = 1.0
    conv.params["bias"][...] = 0.0
    x = np.zeros((1, 7, 7, 7))
    x[0, 3, 3, 3] = 1.0
    y = conv.forward(x)
    assert y[0].sum() == 27.0
    assert np.all(y[0, 2:5, 2:5, 2:5] == 1.0)


@pytest.mark.parametrize("dilation", [1, 2])
def test_conv3d_matches_brute_force(dilation):
    conv = cube_conv(2, 2, dilation=dilation)
    x = RNG.normal(size=(2, 5, 5, 5))
    y = conv.forward(x)
    oracle = brute_conv3d(x, conv.params["weight"], dilation)
    oracle += conv.params["bias"][:, None, None, None]
    np.testing.assert_allclose(y, oracle, atol=1e-10)


def test_conv3d_dilation2_tap_positions():
    conv = cube_conv(1, 1, dilation=2)
    conv.params["weight"][...] = 1.0
    conv.params["bias"][...] = 0.0
    x = np.zeros((1, 9, 9, 9))
    x[0, 4, 4, 4] = 1.0
    y = conv.forward(x)
    hits = np.argwhere(y[0] != 0.0)
    for h in hits:
        assert all(offs in (-2, 0, 2) for offs in (h - 4))


@pytest.mark.parametrize("dilation", [1, 2])
def test_conv3d_gradients(dilation):
    conv = cube_conv(2, 2, dilation=dilation)
    layer_fd_check(conv, RNG.normal(size=(2, 3, 4, 4)))


def test_conv3d_1x1_projection_gradients():
    conv = cube_conv(3, 2, ksize=1)
    layer_fd_check(conv, RNG.normal(size=(3, 2, 3, 3)))


def test_stride_1_pointwise_conv_caches_its_input_as_its_row():
    """A stride-1 1x1x1 conv's row is its input: a training forward caches a
    view of it, not a zero-filled copy. A strided 1x1x1 conv still builds its
    phase row. Neither forward nor backward writes into the input."""
    x = RNG.normal(size=(4, 3, 4, 5))
    kept = x.copy()
    for stride, shared in (((1, 1, 1), True), ((1, 2, 1), False)):
        conv = L.Conv(4, 2, (1, 1, 1), stride, rng=rng64(), dtype=np.float64)
        y = conv.forward(x)
        assert np.shares_memory(conv._cache[0], x) == shared
        conv.backward(np.ones_like(y))
        np.testing.assert_array_equal(x, kept)


# --- convolution: every configuration the nets use, on odd-sized inputs -------

NET_CONVS = {
    "slice": ((1, 3, 3), (1, 1, 1), 1),
    "slice_s2": ((1, 3, 3), (1, 2, 2), 1),
    "depth_s2": ((3, 1, 1), (2, 1, 1), 1),
    "cube": ((3, 3, 3), (1, 1, 1), 1),
    "cube_d2": ((3, 3, 3), (1, 1, 1), 2),
    "cube_d4": ((3, 3, 3), (1, 1, 1), 4),
    "point": ((1, 1, 1), (1, 1, 1), 1),
}


def net_conv(name):
    kernel, stride, dilation = NET_CONVS[name]
    return L.Conv(2, 3, kernel, stride, dilation, rng64(), np.float64)


@pytest.mark.parametrize("name", sorted(NET_CONVS))
def test_conv_matches_embedded_cube_oracle(name):
    """Zero-embed the kernel in a cube, run the dense 3D oracle, subsample."""
    conv = net_conv(name)
    kernel, stride, dilation = NET_CONVS[name]
    k = max(kernel)
    cube = np.zeros((3, 2, k, k, k))
    centre = tuple(slice((k - ki) // 2, (k + ki) // 2) for ki in kernel)
    cube[(...,) + centre] = conv.params["weight"].reshape((3, 2) + kernel)
    x = RNG.normal(size=(2, 5, 6, 7))
    oracle = brute_conv3d(x, cube, dilation)[:, :: stride[0], :: stride[1], :: stride[2]]
    oracle += conv.params["bias"][:, None, None, None]
    np.testing.assert_allclose(conv.forward(x), oracle, atol=1e-10)


@pytest.mark.parametrize("name", sorted(NET_CONVS))
def test_conv_gradients(name):
    conv = net_conv(name)
    conv.params["bias"][...] = RNG.normal(size=3)
    layer_fd_check(conv, RNG.normal(size=(2, 5, 6, 7)))


@pytest.mark.parametrize("kernel", [(1, 3, 3), (3, 3, 3)])
def test_one_channel_conv_matches_oracle(kernel):
    """A single input channel takes its own product path (the stem)."""
    conv = L.Conv(1, 3, kernel, rng=rng64(), dtype=np.float64)
    conv.params["bias"][...] = RNG.normal(size=3)
    cube = np.zeros((3, 1, 3, 3, 3))
    cube[:, :, 1 - kernel[0] // 2 : 2 + kernel[0] // 2] = conv.params["weight"].reshape((3, 1) + kernel)
    x = RNG.normal(size=(1, 5, 6, 7))
    oracle = brute_conv3d(x, cube) + conv.params["bias"][:, None, None, None]
    np.testing.assert_allclose(conv.forward(x), oracle, atol=1e-10)
    layer_fd_check(conv, x)


def embedded_cube(conv):
    """The conv's weight zero-embedded in a (cout, cin, k, k, k) cube, k the
    largest kernel extent, for the dense `brute_conv3d` oracle."""
    k = max(conv.kernel)
    cube = np.zeros((conv.cout, conv.cin, k, k, k))
    centre = tuple(slice((k - ki) // 2, (k + ki) // 2) for ki in conv.kernel)
    cube[(...,) + centre] = conv.params["weight"].reshape((conv.cout, conv.cin) + conv.kernel)
    return cube


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
    stride=st.tuples(*[st.sampled_from((1, 2, 3))] * 3),
    dilation=st.sampled_from((1, 2)),
    dims=st.tuples(*[st.integers(1, 7)] * 3),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_property_oracle_and_adjoint(kernel, stride, dilation, dims, cin, cout, seed):
    """Any kernel, stride and dilation: the forward is the strided dense
    oracle, and the backward is its adjoint,
    <conv(x) - bias, gy> == <x, gx> == <W, grad W>."""
    rng = np.random.default_rng(seed)
    conv = L.Conv(cin, cout, kernel, stride, dilation, rng, np.float64)
    bias = conv.params["bias"]
    bias[...] = rng.normal(size=cout)
    x = rng.normal(size=(cin,) + dims)
    y = conv.forward(x)
    oracle = brute_conv3d(x, embedded_cube(conv), dilation)[:, :: stride[0], :: stride[1], :: stride[2]]
    np.testing.assert_allclose(y, oracle + bias[:, None, None, None], atol=1e-10)
    gy = rng.normal(size=y.shape)
    gx = conv.backward(gy)
    assert gx.shape == x.shape
    linear = np.vdot(y - bias[:, None, None, None], gy)
    np.testing.assert_allclose(np.vdot(x, gx), linear, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(np.vdot(conv.params["weight"], conv.grads["weight"]), linear,
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(conv.grads["bias"], gy.sum(axis=(1, 2, 3)), rtol=1e-12)


@pytest.mark.parametrize("name", ["cube", "cube_d2", "slice_s2", "depth_s2"])
def test_conv_reused_across_input_shapes_matches_fresh_layers(name):
    """One layer fed shapes A, B, A: each output and gradient has the bytes of a
    fresh layer's with the same weights, run after the geometry cache is
    cleared, so a geometry kept across input shapes fails."""
    kernel, stride, dilation = NET_CONVS[name]

    def step(conv, x):
        conv.zero_grads()
        y = conv.forward(x)
        gx = conv.backward(np.random.default_rng(9).normal(size=y.shape).astype(np.float32))
        return [y, gx, conv.grads["weight"], conv.grads["bias"]]

    conv = L.Conv(2, 3, kernel, stride, dilation, rng64(), np.float32)
    xa, xb = (RNG.normal(size=(2,) + dims).astype(np.float32) for dims in ((5, 6, 7), (8, 4, 9)))
    for x in (xa, xb, xa):
        got = step(conv, x)
        L.conv_geometry.cache_clear()
        want = step(L.Conv(2, 3, kernel, stride, dilation, rng64(), np.float32), x)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()


def test_conv_builds_its_geometry_once_per_input_shape():
    conv = cube_conv(2, 3)
    L.conv_geometry.cache_clear()
    for dims in ((4, 5, 6), (4, 5, 6), (3, 5, 6), (4, 5, 6)):
        conv.backward(np.ones_like(conv.forward(RNG.normal(size=(2,) + dims))))
    info = L.conv_geometry.cache_info()
    assert (info.misses, info.hits) == (2, 6)


# --- convolution: stacked runs of kernel planes -------------------------------

# (cin, dims, dilation, stride) of 3x3x3 convs to 16 channels, which select
# runs at any grid size: variant B's fusion (80 channels in) and decoder (16)
# shapes; a depth of 4 at dilation 4, where the outer planes' runs read only
# padding; a depth stride, whose runs read the two depth phases; and variant
# A's bottleneck grid at its 16x32x32 window (400 columns).
STACKED_CONVS = [
    *[(cin, (8, 32, 32), dl, (1, 1, 1)) for cin in (16, 80) for dl in (1, 2, 4)],
    (16, (16, 64, 64), 1, (1, 1, 1)),
    (80, (16, 64, 64), 1, (1, 1, 1)),
    *[(cin, (4, 32, 32), 4, (1, 1, 1)) for cin in (16, 80)],
    (16, (16, 32, 32), 1, (2, 1, 1)),
    (32, (4, 8, 8), 1, (1, 1, 1)),
]


def zero_slab_input(cin, dims, dtype, seed=0):
    """Normal noise with exact-zero slabs in depth and width."""
    x = np.random.default_rng(seed).normal(size=(cin,) + dims).astype(dtype)
    x[:, : dims[0] // 3] = 0.0
    x[..., -dims[2] // 4 :] = 0.0
    return x


def conv_outputs(conv, x):
    """Inference output, then training output, gx and the parameter grads."""
    y_infer = conv.forward(x, train=False)
    conv.zero_grads()
    y = conv.forward(x)
    gx = conv.backward(np.random.default_rng(5).normal(size=y.shape).astype(x.dtype))
    return [y_infer, y, gx, conv.grads["weight"], conv.grads["bias"]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin, dims, dilation, stride", STACKED_CONVS)
def test_stacked_runs_match_the_per_tap_loop(dtype, cin, dims, dilation, stride):
    """The stacked forward (and the backward after it) has the bytes of the
    per-tap loop."""
    conv = L.Conv(cin, 16, (3, 3, 3), stride, dilation, rng64(), dtype)
    conv.params["bias"][...] = RNG.normal(size=16)
    x = zero_slab_input(cin, dims, dtype)
    *_, runs = conv._geometry(dims)
    assert [len(index) for index, *_ in runs] == [9, 9, 9]
    got = conv_outputs(conv, x)
    with per_tap() as stacked:
        want = conv_outputs(conv, x)
    assert stacked == []
    assert_same_bytes(got, want)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
    stride=st.tuples(*[st.sampled_from((1, 2))] * 3),
    dilation=st.sampled_from((1, 2)),
    dims=st.tuples(*[st.integers(1, 9)] * 3),
    cin=st.integers(2, 5),
    cout=st.integers(2, 5),
    block=st.sampled_from((16, 48, 200)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_runs_match_the_per_tap_loop_at_any_geometry(kernel, stride, dilation, dims, cin, cout,
                                                              block, seed):
    """Narrow blocks split small grids' runs at block edges: any kernel,
    stride, dilation and block edge gives the per-tap loop's bytes."""
    rng = np.random.default_rng(seed)
    conv = L.Conv(cin, cout, kernel, stride, dilation, rng, np.float64)
    x = rng.normal(size=(cin,) + dims)
    x[:, : dims[0] // 2] = 0.0
    with per_tap() as stacked:
        want = conv.forward(x, train=False)
    assert stacked == []
    with conv_block(block):
        got = conv.forward(x, train=False)
    assert_same_bytes([got], [want])


@pytest.mark.parametrize("dims", [(1, 1, 1), (4, 8, 8), (16, 64, 64)])
def test_runs_are_selected_at_any_grid_size(dims):
    """The selection reads the conv's shape, not its grid: a 3x3x3 conv with
    several input and output channels stacks its kernel planes at any size."""
    assert [len(index) for index, *_ in cube_conv(16, 16)._geometry(dims)[-1]] == [9, 9, 9]


@pytest.mark.parametrize("cin, cout", [(1, 16), (16, 1)])
def test_one_channel_convs_keep_the_per_tap_loop(cin, cout):
    """With one input channel the product is a broadcast multiply, with one
    output channel a BLAS gemv; a stacked gemm rounds neither the same way,
    so these convs select no runs however large the grid."""
    assert cube_conv(cin, cout)._geometry((8, 32, 32))[-1] == ()


def test_stacked_runs_skip_planes_that_read_only_padding():
    """Depth 4 at dilation 4: the first and last kernel planes read padding
    for every output plane, so their runs cover no column."""
    *_, runs = cube_conv(16, 16, dilation=4)._geometry((4, 32, 32))
    assert [c1 - c0 for *_, (c0, c1) in runs] == [0, 4 * 40 * 40, 0]


def test_stacked_runs_match_brute_force():
    """A grid just over one block, odd channel counts, dilation 2."""
    conv = L.Conv(3, 2, (3, 3, 3), dilation=2, rng=rng64(), dtype=np.float64)
    conv.params["bias"][...] = RNG.normal(size=2)
    x = zero_slab_input(3, (5, 30, 30), np.float64)
    assert conv._geometry(x.shape[1:])[-1]
    oracle = brute_conv3d(x, conv.params["weight"], 2) + conv.params["bias"][:, None, None, None]
    np.testing.assert_allclose(conv.forward(x), oracle, atol=1e-10)


# --- convolution: a nearest upsample folded into a stride-1 conv ---------------

FOLD_FACTORS = [(2, 2, 2), (1, 2, 2), (2, 1, 1)]
# (cin, cout, low-res dims, factors, dilation): odd channel counts and extents
# and a width of 1 at every factor and dilation, then dec1.conv's grid, whose
# reference conv over the upsampled grid stacks its runs.
FOLDED_CONVS = [
    *[(cin, cout, dims, factors, dilation)
      for cin, cout, dims in [(3, 2, (3, 5, 7)), (16, 16, (4, 8, 8)), (2, 3, (2, 3, 1))]
      for factors in FOLD_FACTORS for dilation in (1, 2)],
    (16, 16, (8, 32, 32), (2, 2, 2), 1),
]


def folded_conv(cin, cout, dilation, factors, dtype, kernel=(3, 3, 3)):
    conv = L.Conv(cin, cout, kernel, dilation=dilation, rng=rng64(), dtype=dtype, upsample=factors)
    conv.params["bias"][...] = np.random.default_rng(3).normal(size=cout)
    return conv


def chain_outputs(conv, x):
    """`conv_outputs` of upsample_nearest then the same conv without the fold."""
    plain = L.Conv(conv.cin, conv.cout, conv.kernel, dilation=conv.dilation, rng=rng64(), dtype=x.dtype)
    for name, p in plain.params.items():
        p[...] = conv.params[name]
    up = L.UpsampleNearest(conv.upsample)
    y_infer = plain.forward(L.upsample_nearest(x, conv.upsample), train=False)
    plain.zero_grads()
    y = plain.forward(up.forward(x))
    gx = up.backward(plain.backward(np.random.default_rng(5).normal(size=y.shape).astype(x.dtype)))
    return [y_infer, y, gx, plain.grads["weight"], plain.grads["bias"]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin, cout, dims, factors, dilation", FOLDED_CONVS)
def test_folded_upsample_matches_the_materialized_chain(dtype, cin, cout, dims, factors, dilation):
    """The inference output, the training output, gx and the parameter grads
    have the bytes of upsample_nearest then a plain conv, on an input with
    exact-zero slabs."""
    conv = folded_conv(cin, cout, dilation, factors, dtype)
    x = zero_slab_input(cin, dims, dtype)
    got = conv_outputs(conv, x)
    assert got[0].shape == (cout,) + tuple(m * f for m, f in zip(dims, factors))
    assert_same_bytes(got, chain_outputs(conv, x))


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
    dilation=st.sampled_from((1, 2)),
    factors=st.tuples(*[st.sampled_from((1, 2, 3))] * 3).filter(lambda f: f != (1, 1, 1)),
    dims=st.tuples(*[st.integers(1, 9)] * 3),
    cin=st.integers(1, 5),
    cout=st.integers(2, 5),
    dtype=st.sampled_from((np.float32, np.float64)),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_upsample_matches_the_materialized_chain_at_any_geometry(kernel, dilation, factors, dims, cin,
                                                                       cout, dtype, seed):
    """Any kernel, dilation, factors and extents: a fold with more than one
    output channel has the bytes of upsample_nearest then a plain conv."""
    rng = np.random.default_rng(seed)
    conv = L.Conv(cin, cout, kernel, dilation=dilation, rng=rng, dtype=dtype, upsample=factors)
    conv.params["bias"][...] = rng.normal(size=cout)
    x = rng.normal(size=(cin,) + dims).astype(dtype)
    x[:, : dims[0] // 2] = 0.0
    assert_same_bytes(conv_outputs(conv, x), chain_outputs(conv, x))


@pytest.mark.parametrize("factors", FOLD_FACTORS)
@pytest.mark.parametrize("dilation", [1, 2])
def test_folded_upsample_gradients(factors, dilation):
    conv = folded_conv(2, 3, dilation, factors, np.float64)
    layer_fd_check(conv, RNG.normal(size=(2, 2, 3, 3)))


@pytest.mark.parametrize("kernel", [(1, 3, 3), (3, 1, 1), (1, 1, 1), (5, 3, 1)])
def test_folded_upsample_with_anisotropic_kernels_matches_brute_force(kernel):
    """Other kernel shapes and a factor of 3 against the dense oracle on the
    materialized upsample, with three output channels and with one."""
    x = RNG.normal(size=(2, 3, 4, 5))
    up = L.upsample_nearest(x, (3, 2, 1))
    for cout in (3, 1):
        conv = folded_conv(2, cout, 1, (3, 2, 1), np.float64, kernel)
        oracle = brute_conv3d(up, embedded_cube(conv)) + conv.params["bias"][:, None, None, None]
        np.testing.assert_allclose(conv.forward(x, train=False), oracle, atol=1e-10)


def test_folded_inference_forward_writes_nothing():
    conv = folded_conv(3, 2, 1, (2, 2, 2), np.float32)
    x = zero_slab_input(3, (3, 5, 7), np.float32)
    before = dict(vars(conv))
    conv.forward(x, train=False)
    assert vars(conv).keys() == before.keys() and all(vars(conv)[k] is v for k, v in before.items())
    assert conv._cache is None
    with pytest.raises(L.MissingForwardCacheError):
        conv.backward(np.zeros((2, 6, 10, 14), dtype=np.float32))


def test_folded_upsample_needs_stride_1():
    with pytest.raises(ValueError, match="stride 1"):
        L.Conv(2, 2, (3, 3, 3), (1, 2, 2), rng=rng64(), upsample=(2, 2, 2))


def test_conv_rejects_even_kernel_and_channel_mismatch():
    with pytest.raises(ValueError):
        L.Conv(1, 1, (2, 3, 3), rng=rng64())
    with pytest.raises(ValueError):
        L.Conv(2, 1, (1, 1, 1), rng=rng64()).forward(np.zeros((1, 2, 2, 2)))


# --- pixel shuffle -----------------------------------------------------------


def test_pixel_shuffle_r1_identity():
    x = RNG.normal(size=(3, 2, 4, 4))
    np.testing.assert_array_equal(L.PixelShuffleHW(1).forward(x), x)


def test_pixel_shuffle_2x2_block():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1, 1)  # channels a,b,c,d
    y = L.PixelShuffleHW(2).forward(x)
    assert y.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(y[0, 0], [[1.0, 2.0], [3.0, 4.0]])


def test_pixel_shuffle_index_formula():
    r, c, d, h, w = 2, 2, 1, 3, 3
    x = RNG.normal(size=(c * r * r, d, h, w))
    y = L.PixelShuffleHW(r).forward(x)
    for cc in range(c):
        for yy in range(h):
            for xx in range(w):
                for i in range(r):
                    for j in range(r):
                        assert y[cc, 0, yy * r + i, xx * r + j] == x[cc * r * r + i * r + j, 0, yy, xx]


def test_pixel_shuffle_preserves_multiset():
    x = RNG.normal(size=(8, 2, 3, 3))
    y = L.PixelShuffleHW(2).forward(x)
    assert sorted(x.reshape(-1)) == sorted(y.reshape(-1))


def test_pixel_shuffle_indivisible_channels():
    with pytest.raises(ValueError):
        L.PixelShuffleHW(2).forward(np.zeros((3, 1, 2, 2)))


def test_pixel_shuffle_backward_inverts():
    ps = L.PixelShuffleHW(2)
    x = RNG.normal(size=(4, 2, 3, 3))
    y = ps.forward(x)
    np.testing.assert_array_equal(ps.backward(y), x)


# --- scSE attention ---------------------------------------------------------


def test_scse_saturated_gates_zero_output():
    blk = L.SCSEBlock(4, 2, rng64(), np.float64)
    blk.params["fc1_w"][...] = 0.0
    blk.params["fc1_b"][...] = 0.0
    blk.params["fc2_w"][...] = 0.0
    blk.params["fc2_b"][...] = -50.0
    blk.params["sp_w"][...] = 0.0
    blk.params["sp_b"][...] = -50.0
    y = blk.forward(RNG.normal(size=(4, 2, 3, 3)))
    assert np.abs(y).max() < 1e-15


def test_scse_neutral_gates_identity():
    blk = L.SCSEBlock(4, 2, rng64(), np.float64)
    for k in blk.params:
        blk.params[k][...] = 0.0
    x = RNG.normal(size=(4, 2, 3, 3))
    np.testing.assert_allclose(blk.forward(x), x)


def test_scse_shape_preserved():
    blk = L.SCSEBlock(6, 2, rng64(), np.float64)
    x = RNG.normal(size=(6, 3, 4, 5))
    assert blk.forward(x).shape == x.shape


def test_scse_gradients():
    blk = L.SCSEBlock(4, 2, rng64(), np.float64)
    layer_fd_check(blk, RNG.normal(size=(4, 2, 3, 3)), rel_tol=1e-5)


# --- fusion block ------------------------------------------------------------


def test_fusion_same_size_inputs():
    fb = L.FusionBlock([2, 3], 4, 5, rng64(), np.float64)
    xs = [RNG.normal(size=(2, 2, 6, 6)), RNG.normal(size=(3, 2, 6, 6))]
    y = fb.forward(xs)
    assert y.shape == (5, 2, 6, 6)


def test_fusion_output_matches_finest_input():
    fb = L.FusionBlock([2, 2, 2], 3, 4, rng64(), np.float64)
    xs = [
        RNG.normal(size=(2, 4, 8, 8)),
        RNG.normal(size=(2, 2, 4, 4)),
        RNG.normal(size=(2, 2, 2, 2)),
    ]
    y = fb.forward(xs)
    assert y.shape == (4, 4, 8, 8)


def test_fusion_constant_inputs_constant_interior():
    fb = L.FusionBlock([1, 1], 2, 2, rng64(), np.float64)
    xs = [np.full((1, 10, 12, 12), 0.7), np.full((1, 5, 6, 6), -0.2)]
    y = fb.forward(xs)
    # interior voxels beyond the largest dilated receptive field (dil 4, k 3)
    interior = y[:, 4:-4, 4:-4, 4:-4]
    for ch in interior:
        assert np.ptp(ch) < 1e-9


def test_fusion_rejects_single_map():
    with pytest.raises(ValueError):
        L.FusionBlock([2], 2, 2, rng64(), np.float64)


def test_fusion_incompatible_dims():
    fb = L.FusionBlock([1, 1], 2, 2, rng64(), np.float64)
    with pytest.raises(ValueError):
        fb.forward([np.zeros((1, 4, 6, 6)), np.zeros((1, 4, 4, 4))])


def test_fusion_gradients():
    fb = L.FusionBlock([1, 2], 2, 2, rng64(), np.float64)
    xs = [RNG.normal(size=(1, 2, 4, 4)), RNG.normal(size=(2, 1, 2, 2))]
    g_up = np.random.default_rng(5).normal(size=(2, 2, 4, 4))

    def scalar(flat):
        a = flat[: xs[0].size].reshape(xs[0].shape)
        b = flat[xs[0].size :].reshape(xs[1].shape)
        return float(np.sum(fb.forward([a, b]) * g_up))

    fb.zero_grads()
    fb.forward([x.copy() for x in xs])
    gxs = fb.backward(g_up)
    flat = np.concatenate([x.reshape(-1) for x in xs])
    fd = fd_grad(scalar, flat, h=1e-5)
    analytic = np.concatenate([g.reshape(-1) for g in gxs])
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)


# --- misc --------------------------------------------------------------------


def test_upsample_nearest_and_backward():
    up = L.UpsampleNearest((2, 2, 2))
    x = RNG.normal(size=(2, 2, 3, 3))
    y = up.forward(x)
    assert y.shape == (2, 4, 6, 6)
    assert y[0, 0, 0, 0] == y[0, 1, 1, 1] == x[0, 0, 0, 0]
    gy = RNG.normal(size=y.shape)
    gx = up.backward(gy)
    assert gx[0, 0, 0, 0] == pytest.approx(gy[0, 0:2, 0:2, 0:2].sum())


def test_identity_upsample_backward_returns_its_gradient():
    """Unit factors (variant B's dec{i}.up slots, the fusion block's finest
    input) hand the gradient back without a copy."""
    up = L.UpsampleNearest((1, 1, 1))
    up.forward(RNG.normal(size=(2, 2, 3, 3)))
    gy = RNG.normal(size=(2, 2, 3, 3))
    assert up.backward(gy) is gy
    assert np.shares_memory(L.upsample_nearest_backward(gy, (1, 1, 1)), gy)


def test_silu_gradients():
    layer_fd_check(L.SiLU(), RNG.normal(size=(2, 3, 4, 4)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_matches_silu_and_silu_grad_bytes(dtype):
    """Both modes return silu(x), and the training backward is gy * silu_grad(x),
    byte for byte, from saturated to near-zero inputs."""
    rng = np.random.default_rng(11)
    x = (rng.normal(size=(3, 4, 5, 6)) * np.logspace(-4, 1, 6)).astype(dtype)
    gy = rng.normal(size=x.shape).astype(dtype)
    layer = L.SiLU()
    for train in (False, True):
        y = layer.forward(x, train)
        assert y.dtype == dtype and y.tobytes() == L.silu(x).tobytes()
    gx = layer.backward(gy)
    assert gx.dtype == dtype and gx.tobytes() == (gy * L.silu_grad(x)).tobytes()


def test_silu_backward_needs_a_training_forward():
    layer = L.SiLU()
    x = RNG.normal(size=(1, 2, 2, 2))
    layer.forward(x, train=False)
    with pytest.raises(L.MissingForwardCacheError):
        layer.backward(x)
    layer.forward(x)
    layer.backward(x)
    with pytest.raises(L.MissingForwardCacheError):
        layer.backward(x)


def test_backward_without_forward_raises():
    with pytest.raises(L.MissingForwardCacheError):
        L.SiLU().backward(np.zeros((1, 1, 1, 1)))
    conv = cube_conv(1, 1)
    with pytest.raises(L.MissingForwardCacheError):
        conv.backward(np.zeros((1, 2, 2, 2)))
