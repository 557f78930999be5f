"""Shape contracts, determinism, checkpoints, and whole-net gradient checks."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import append_wts_block, assert_same_bytes, materialized_upsamples, per_tap
from tomopick import layers as L
from tomopick import nets
from tomopick.cli import _window_depth
from tomopick.config import PipelineConfig

RNG = np.random.default_rng(31)


def tiny_a(**kw):
    base = dict(variant="A", in_depth=8, window_hw=16, class_count=1,
                widths=(3, 4, 5), seed=3)
    base.update(kw)
    return nets.NetConfig(**base)


def tiny_b(**kw):
    base = dict(variant="B", in_depth=8, window_hw=16, class_count=1,
                widths=(2, 3, 3, 4), decoder_width=4, seed=3)
    base.update(kw)
    return nets.NetConfig(**base)


def test_variant_a_shape_contract():
    cfg = tiny_a(in_depth=16, window_hw=32, class_count=3)
    net = nets.build_net(cfg)
    y = net.forward(RNG.normal(size=(16, 32, 32)).astype(np.float32))
    assert y.shape == (3, 16, 32, 32)


def test_variant_b_shape_contract():
    cfg = tiny_b(in_depth=32, window_hw=32, class_count=2)
    net = nets.build_net(cfg)
    y = net.forward(RNG.normal(size=(32, 32, 32)).astype(np.float32))
    assert y.shape == (2, 32, 32, 32)


@pytest.mark.parametrize("make", [tiny_a, tiny_b])
def test_forward_deterministic(make):
    cfg = make()
    x = RNG.normal(size=(8, 16, 16)).astype(np.float32)
    y1 = nets.build_net(cfg).forward(x)
    y2 = nets.build_net(cfg).forward(x)
    np.testing.assert_array_equal(y1, y2)


@pytest.mark.parametrize("make", [tiny_a, tiny_b])
def test_shape_sweep(make):
    for in_depth, hw in [(8, 16), (8, 24), (16, 16), (16, 32)]:
        cfg = make(in_depth=in_depth, window_hw=hw)
        net = nets.build_net(cfg)
        y = net.forward(RNG.normal(size=(in_depth, hw, hw)).astype(np.float32))
        assert y.shape == (cfg.class_count, in_depth, hw, hw)


def every_layer(layer):
    """Every layer registered under `layer`, depth first."""
    for sub in layer._layers.values():
        yield sub
        yield from every_layer(sub)


def attribute_layers(layer):
    """Every layer reachable from `layer`'s attributes other than its registry,
    through lists and nested tuples, depth first."""
    def walk(value):
        if isinstance(value, L.Layer):
            yield value
            yield from attribute_layers(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from walk(item)

    for name, value in vars(layer).items():
        if name != "_layers":
            yield from walk(value)


@pytest.mark.parametrize("make", [tiny_a, lambda: tiny_a(strided_depth_pool=True), tiny_b],
                         ids=["tiny_a", "strided_a", "tiny_b"])
def test_layer_tree_is_complete(make):
    """Each sub-layer a layer holds is registered, so its parameters reach
    `named_params`, the gradient checks and the checkpoint."""
    net = nets.build_net(make())
    for layer in [net, *every_layer(net)]:
        held = {id(sub) for sub in attribute_layers(layer)}
        assert held == {id(sub) for sub in every_layer(layer)}, type(layer).__name__


@pytest.mark.parametrize("make", [tiny_a, tiny_b])
def test_inference_forward_keeps_no_state(make):
    net = nets.build_net(make())
    x = RNG.normal(size=(8, 16, 16)).astype(np.float32)
    layers = list(every_layer(net))
    before = [dict(vars(layer)) for layer in layers]
    y = net.forward(x, train=False)
    for layer, attrs in zip(layers, before):
        assert layer._cache is None, type(layer).__name__
        now = vars(layer)
        assert now.keys() == attrs.keys() and all(now[k] is v for k, v in attrs.items())
    with pytest.raises(L.MissingForwardCacheError):
        net.backward(np.ones_like(y))
    assert net.forward(x).tobytes() == y.tobytes()


# The benchmark's windows: infer_b_ensemble's variant B (16x64x64, 6 classes)
# and toy_chain's variant A (16x32x32).
B_WINDOW = nets.NetConfig(variant="B", in_depth=16, window_hw=64, class_count=6,
                          widths=(8, 16, 32, 32), decoder_width=16)
A_WINDOW = nets.NetConfig(variant="A", in_depth=16, window_hw=32, widths=(8, 16, 32, 32))


def window_input(cfg):
    x = np.random.default_rng(41).normal(size=(cfg.in_depth, cfg.window_hw, cfg.window_hw))
    x[: cfg.in_depth // 4] = 0.0  # an exact-zero slab
    return x.astype(np.float32)


def named_convs(layer, prefix=""):
    for name, sub in layer._layers.items():
        if isinstance(sub, L.Conv):
            yield prefix + name, sub
        yield from named_convs(sub, f"{prefix}{name}.")


def net_outputs(net, x):
    """Inference output, training output, gx, then every parameter gradient
    by name."""
    y_infer = net.forward(x, train=False)
    net.zero_grads()
    y = net.forward(x)
    gx = net.backward(np.random.default_rng(42).normal(size=y.shape).astype(x.dtype))
    return [y_infer, y, gx, *(g for _, g in sorted(net.named_grads().items()))]


def test_b_window_stacked_runs_match_the_per_tap_loop():
    """At the B window, the inference output, the training output, gx and
    every parameter gradient have the bytes of the per-tap loop, with dec1's
    (2, 2, 2) nearest upsample materialized before a plain dec1.conv."""
    net = nets.build_net(B_WINDOW)
    x = window_input(B_WINDOW)
    got = net_outputs(net, x)
    with per_tap() as stacked, materialized_upsamples(net):
        want = net_outputs(net, x)
    assert stacked == []
    assert_same_bytes(got, want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("strided", [False, True], ids=["A", "A_strided"])
def test_a_window_stacked_runs_match_the_per_tap_loop(strided, dtype):
    """At the A window, where `bott` stacks its kernel planes, the inference
    output, the training output, gx and every parameter gradient have the
    bytes of the per-tap loop, with depth pooling and with strided depth
    convs."""
    cfg = replace(A_WINDOW, class_count=3, strided_depth_pool=strided, dtype=dtype)
    net = nets.build_net(cfg)
    x = window_input(cfg).astype(cfg.np_dtype)
    got = net_outputs(net, x)
    with per_tap() as stacked:
        want = net_outputs(net, x)
    assert stacked == []
    assert_same_bytes(got, want)


@pytest.mark.parametrize("cfg, stacked, inputs", [
    (B_WINDOW, {"fusion.branch0", "fusion.branch1", "fusion.branch2", "dec0.conv", "dec2.conv"},
     {"dec1.conv": (16, 8, 32, 32), **{f"fusion.branch{i}": (80, 8, 32, 32) for i in range(3)}}),
    (A_WINDOW, {"bott"}, {}),
], ids=["B", "A"])
def test_convs_that_stack_runs_at_the_benchmark_windows(cfg, stacked, inputs):
    """Read from each conv's cache after a training forward. The convs in
    `inputs` cache their input in place of their row: the fusion branches
    share the block's one input, and dec1.conv, which folds the (2, 2, 2)
    upsample, caches its input on the fusion grid. dec1.conv's geometry holds
    3 runs, one per kernel plane, of 9 taps, each tap with a shift for each of
    the 8 output phases. Of the other convs, exactly the 3x3x3 convs stack
    runs of more than one tap (a kernel plane): those of the B window, and the
    A window's `bott`, whose grid has only 400 columns."""
    net = nets.build_net(cfg)
    net.forward(window_input(cfg))
    convs = dict(named_convs(net))
    cached = {name: conv._cache[1] for name, conv in convs.items() if conv._cache[0] is None}
    assert {name: x.shape for name, x in cached.items()} == inputs
    assert len({id(x) for name, x in cached.items() if name.startswith("fusion.")}) <= 1
    folded = {name for name, conv in convs.items() if conv.upsample != (1, 1, 1)}
    assert folded <= inputs.keys()
    for name in folded:
        runs = convs[name]._geometry(inputs[name][1:], (2, 2, 2))[-1]
        assert [(len(index), [len(s) for s in shifts]) for index, _, shifts, _ in runs] == [(9, [9] * 8)] * 3
    shapes = {name: inputs.get(name) or conv._cache[1] for name, conv in convs.items()}
    taps = {name: [len(run[0]) for run in conv._geometry(shapes[name][1:])[-1]]
            for name, conv in convs.items() if name not in folded}
    assert {name for name, t in taps.items() if t} == stacked
    assert all(t == [9, 9, 9] for name, t in taps.items() if name in stacked)


def test_b_training_forward_holds_one_copy_of_each_conv_input():
    """After a training forward at the B window, the caches and the output hold
    at most 45 MB (tracemalloc). The fusion branches share the block's input
    and rebuild their padded rows in backward, and the 1x1x1 convs cache their
    input as their row; a padded row per branch and a copied row per 1x1x1
    conv would hold 54.7 MB."""
    net = nets.build_net(B_WINDOW)
    x = window_input(B_WINDOW)
    tracemalloc.start()
    try:
        y = net.forward(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.shape == (6, 16, 64, 64)
    assert held <= 45 << 20


def test_zero_upstream_grad_gives_zero_param_grads():
    net = nets.build_net(tiny_a())
    y = net.forward(RNG.normal(size=(8, 16, 16)).astype(np.float32))
    net.zero_grads()
    net.backward(np.zeros_like(y))
    for name, g in net.named_grads().items():
        assert np.all(g == 0.0), name


def test_strided_depth_pool_variant():
    cfg = tiny_a(strided_depth_pool=True)
    net = nets.build_net(cfg)
    y = net.forward(RNG.normal(size=(8, 16, 16)).astype(np.float32))
    assert y.shape == (1, 8, 16, 16)
    assert any(k.startswith("dp1.") for k in net.named_params())


def test_input_shape_validation():
    net = nets.build_net(tiny_a())
    with pytest.raises(ValueError):
        net.forward(np.zeros((4, 16, 16), dtype=np.float32))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = tiny_b()
    net = nets.build_net(cfg)
    path = tmp_path / "net.wts"
    nets.save_weights(path, net)
    stored, state = nets.load_weights(path)
    assert nets.config_text(stored) == nets.config_text(cfg)
    params = net.named_params()
    assert set(state) == set(params)
    for k in params:
        assert state[k].tobytes() == params[k].astype(np.float32).tobytes()


def test_checkpoint_config_hash_guard(tmp_path):
    """A config given to `load_net` must match the stored one on every field but seed and dtype."""
    net = nets.build_net(tiny_a())
    path = tmp_path / "net.wts"
    nets.save_weights(path, net)
    with pytest.raises(nets.CheckpointError, match="different net config"):
        nets.load_net(path, tiny_a(widths=(3, 4, 6)))
    loaded = nets.load_net(path, tiny_a(seed=9, dtype="float64"))
    assert loaded.named_params()["stem.weight"].dtype == np.float64


@pytest.mark.parametrize("variant, strided", [("A", False), ("A", True), ("B", False)])
@pytest.mark.parametrize("widths", [(1, 1, 1, 1), (3, 4, 5, 6), (2, 7, 1, 9)])
@pytest.mark.parametrize("decoder_width", [1, 2, 7])
@pytest.mark.parametrize("class_count", [1, 3])
def test_param_count_counts_the_built_net(variant, strided, widths, decoder_width, class_count):
    cfg = nets.NetConfig(variant=variant, in_depth=8, window_hw=16, widths=widths, decoder_width=decoder_width,
                         class_count=class_count, strided_depth_pool=strided)
    assert nets.param_count(cfg) == sum(a.size for a in nets.build_net(cfg).named_params().values())


def test_loaded_net_reproduces_outputs(tmp_path):
    cfg = tiny_a()
    net = nets.build_net(cfg)
    x = RNG.normal(size=(8, 16, 16)).astype(np.float32)
    y = net.forward(x)
    path = tmp_path / "net.wts"
    nets.save_weights(path, net)
    net2 = nets.load_net(path, cfg)
    np.testing.assert_array_equal(net2.forward(x), y)


# Committed WTS2 checkpoints of freshly initialised tiny nets, each with one
# forward output; `tests/data/make_net_fixtures.py` writes them.
DATA = Path(__file__).parent / "data"
FIXTURES = {
    "a": tiny_a(),
    "a_strided": tiny_a(strided_depth_pool=True),
    "b": tiny_b(),
}


def fixture_input():
    return np.random.default_rng(2025).normal(size=(8, 16, 16)).astype(np.float32)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_committed_checkpoint_pins_init_and_outputs(name):
    cfg = FIXTURES[name]
    stored, state = nets.load_weights(DATA / f"net_{name}.wts")
    assert nets.config_text(stored) == nets.config_text(cfg)
    params = nets.build_net(cfg).named_params()
    assert set(state) == set(params)
    for k in params:
        assert state[k].shape == params[k].shape, k
        assert state[k].tobytes() == params[k].tobytes(), k
    ref = np.load(DATA / f"net_{name}.out.npy")
    y = nets.load_net(DATA / f"net_{name}.wts", cfg).forward(fixture_input())
    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-6)
    # With no config given, the net is built from the one the checkpoint stores.
    y = nets.load_net(DATA / f"net_{name}.wts").forward(fixture_input())
    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-6)


def test_checkpoint_truncation_rejected(tmp_path):
    net = nets.build_net(tiny_a())
    path = tmp_path / "net.wts"
    nets.save_weights(path, net)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(nets.CheckpointError):
        nets.load_weights(path)


def test_checkpoint_repeated_name_rejected(tmp_path):
    """A second block for one parameter is an error; the later block does not win."""
    net = nets.build_net(tiny_a())
    path = tmp_path / "net.wts"
    nets.save_weights(path, net)
    append_wts_block(path, "bott.bias", np.full(net.named_params()["bott.bias"].shape, 7.0))
    with pytest.raises(nets.CheckpointError, match="parameter 'bott.bias' repeated"):
        nets.load_weights(path)


def _cli_default_net(variant):
    """The net `train --variant <variant>` builds under the default config."""
    cfg = PipelineConfig()
    return nets.NetConfig(variant=variant, in_depth=_window_depth(variant, cfg), window_hw=cfg.window,
                          class_count=len(cfg.classes))


def test_config_hash_keeps_its_values():
    """Checkpoints carry these hashes (the committed fixtures among them), so
    the canonical text that `config_hash` hashes must not change."""
    configs = {
        **FIXTURES,
        "cli_default_a": _cli_default_net("A"),
        "cli_default_b": _cli_default_net("B"),
        # infer_b_ensemble's net_config(1)
        "ensemble_b": nets.NetConfig(variant="B", in_depth=16, window_hw=64, class_count=6,
                                     widths=(8, 16, 32, 32), decoder_width=16, seed=1),
    }
    assert {name: nets.config_hash(cfg) for name, cfg in configs.items()} == {
        "a": 430068878738153525,
        "a_strided": 11402711830136638887,
        "b": 12673531262788522623,
        "cli_default_a": 7776190134203050975,
        "cli_default_b": 10746973694647468925,
        "ensemble_b": 4190615218220262105,
    }


@pytest.mark.parametrize("make", [tiny_a, tiny_b])
def test_full_net_gradient_check_float64(make):
    cfg = make(dtype="float64")
    net = nets.build_net(cfg)
    assert sum(v.size for v in net.named_params().values()) <= 10_000
    x = np.random.default_rng(11).normal(size=(8, 16, 16))
    g_up = np.random.default_rng(12).normal(size=(1, 8, 16, 16))

    net.zero_grads()
    y = net.forward(x)
    net.backward(g_up)
    analytic = {k: v.copy() for k, v in net.named_grads().items()}

    params = net.named_params()
    rng = np.random.default_rng(13)
    h = 1e-4
    worst = 0.0
    for name, p in params.items():
        # spot-check a few entries per tensor; the acceptance suite sweeps all
        idxs = [np.unravel_index(i, p.shape)
                for i in rng.choice(p.size, size=min(4, p.size), replace=False)]
        for idx in idxs:
            orig = p[idx]
            p[idx] = orig + h
            fp = float(np.sum(net.forward(x) * g_up))
            p[idx] = orig - h
            fm = float(np.sum(net.forward(x) * g_up))
            p[idx] = orig
            fd = (fp - fm) / (2 * h)
            a = analytic[name][idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-5
