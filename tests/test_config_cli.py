"""Config file round trips and the command-line front end."""

import argparse
import collections
import contextlib
import importlib.util
import io
import os
import platform
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import append_wts_block, wts_blocks_start, with_config_text
from tomopick import cli, nets
from tomopick.cli import build_parser, run
from tomopick.config import (
    ConfigError,
    PipelineConfig,
    default_classes,
    format_config,
    _KEYS,
    parse_config,
    sigma_for_radius,
)
from tomopick.coords import ParticleClassSpec
from tomopick.tiler import tiled_inference
from tomopick.train import TrainConfig
from tomopick.volgrid import Volume3D, read_heatmap, read_volume, write_volume


def test_sigma_rule_and_clamps():
    assert sigma_for_radius(60.0, 10.0) == 3.0
    assert sigma_for_radius(10.0, 10.0) == 2.0  # clamped up
    assert sigma_for_radius(500.0, 10.0) == 8.0  # clamped down


def test_default_class_table():
    classes = default_classes()
    assert [c.name for c in classes] == [
        "apo_ferritin",
        "beta_amylase",
        "beta_galactosidase",
        "ribosome",
        "thyroglobulin",
        "virus_like_particle",
    ]
    rib = classes[3]
    assert rib.radius == 150.0
    assert rib.match_radius_tau == 300.0
    assert rib.sigma_vox == pytest.approx(150.0 / (2 * 10.012))


def test_config_text_round_trip_identity():
    cfg = PipelineConfig(xy_stride=64, nms_kernel=5, edge_floor=0.02)
    text = format_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert format_config(again) == text


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("pipeline.bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("class.foo.bogus = 1\n")


def test_config_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\ntiling.window = 64\n")
    assert cfg.window == 64
    assert cfg.spacing == PipelineConfig().spacing


def test_config_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("tiling.window = 64\ntiling.window = 32\n")


def test_config_duplicate_class_field_rejected(tmp_path, capsys):
    text = "".join(f"class.a.{fld} = 1.0\n" for fld in
                   ("radius", "sigma_vox", "detect_threshold", "match_radius_tau", "metric_weight"))
    text += "class.a.radius = 2.0\n"
    with pytest.raises(ConfigError, match=r"line 6: duplicate key 'class.a.radius'"):
        parse_config(text)
    bad = tmp_path / "dup.cfg"
    bad.write_text(text)
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(bad)) == 3
    assert "line 6: duplicate key" in capsys.readouterr().err


def test_config_offset_restricted():
    with pytest.raises(ConfigError):
        parse_config("pipeline.offset = 0.7\n")


def test_config_incomplete_class_rejected():
    with pytest.raises(ConfigError):
        parse_config("class.foo.radius = 30.0\n")


def run_cli(*argv):
    return run(list(argv))


def test_plan_prints_window_counts(capsys):
    assert run_cli("plan", "--dims", "184", "630", "630") == 0
    out = capsys.readouterr().out
    assert "XY windows: 12 x 12" in out
    assert "Z windows: 22" in out


def test_plan_variant_b_reads_double_depth_windows(capsys):
    assert run_cli("plan", "--dims", "184", "630", "630", "--variant", "B") == 0
    assert "Z windows: 20 (window 32" in capsys.readouterr().out


def test_plan_pads_a_shallow_volume_to_one_z_window(capsys):
    assert run_cli("plan", "--dims", "8", "32", "32") == 0
    out = capsys.readouterr().out
    assert "volume 8 x 32 x 32, padded to 16 x 656 x 656\n" in out
    assert "Z windows: 1 (window 16" in out


def test_plan_and_infer_refuse_a_plane_wider_than_pad_to_alike(tmp_path, small_cfg, capsys):
    """`plan` does not print a plan that `infer` then refuses."""
    assert run_cli("plan", "--dims", "16", "32", "80", "--config", small_cfg) == 4
    plan_err = capsys.readouterr().err
    vol, ckpt = tmp_path / "wide.vol", tmp_path / "a.wts"
    write_volume(Volume3D(np.zeros((16, 32, 80), dtype=np.float32), 10.0), vol)
    nets.save_weights(ckpt, nets.build_net(nets.NetConfig(variant="A", in_depth=16, window_hw=32,
                                                          widths=(4, 4, 4))))
    assert run_cli("infer", str(ckpt), "--config", small_cfg,
                   "--volume", str(vol), "--out", str(tmp_path / "hm.hmc")) == 4
    assert capsys.readouterr().err == plan_err == "error: pad_to 64 smaller than volume XY 32x80\n"


@settings(max_examples=10, deadline=None)
@given(dims=st.tuples(st.integers(1, 40), st.integers(1, 64), st.integers(1, 64)), variant=st.sampled_from("AB"))
def test_plan_window_counts_are_the_predictor_calls_of_inference(dims, variant):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        (Path(tmp) / "small.cfg").write_text(SMALL_CFG)
        argv = ("--dims", *map(str, dims), "--variant", variant, "--config", str(Path(tmp) / "small.cfg"))
        assert run_cli("plan", *argv) == 0
    ny, nx = map(int, re.search(r"XY windows: (\d+) x (\d+)", out.getvalue()).groups())
    nz = int(re.search(r"Z windows: (\d+)", out.getvalue()).group(1))
    cfg, calls = parse_config(SMALL_CFG), []

    def predict(win):
        calls.append(win.shape)
        return win[None]

    z_window = cfg.z_window * (1 if variant == "A" else 2)
    tiled_inference([predict], Volume3D(np.zeros(dims, dtype=np.float32)), window_hw=cfg.window,
                    xy_stride=cfg.xy_stride, pad_to=cfg.pad_to, z_window=z_window, z_stride=cfg.z_stride)
    assert len(calls) == nz * ny * nx


def test_plan_marks_clamped_origin(capsys):
    assert run_cli("plan", "--dims", "184", "630", "630", "--xy-stride", "96") == 0
    out = capsys.readouterr().out
    assert "*" in out


def test_bad_config_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope.nope = 1\n")
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(bad)) == 3


def _class_block(**values):
    """Config lines for a complete class `a`, with some fields replaced."""
    fields = dict(radius="40.0", sigma_vox="2.0", detect_threshold="0.5", match_radius_tau="80.0",
                  metric_weight="1.0") | values
    return "\n".join(f"class.a.{fld} = {value}" for fld, value in fields.items())


@pytest.mark.parametrize("line", [
    "tiling.window = 0",
    "tiling.xy_stride = 0",
    "tiling.z_window = 0",
    "tiling.z_stride = 0",
    "tiling.pad_to = 100",
    "blend.edge_floor = 0.0",
    "blend.edge_floor = 1.5",
    "pipeline.spacing = 0.0",
    "pipeline.spacing = nan",
    "pipeline.spacing = inf",
    *[pytest.param(_class_block(**{fld: value}), id=f"class.a.{fld} = {value}") for fld, value in (
        ("radius", "nan"), ("radius", "inf"), ("sigma_vox", "inf"), ("match_radius_tau", "nan"),
        ("match_radius_tau", "inf"), ("metric_weight", "inf"), ("metric_weight", "nan"),
        ("metric_weight", "0.0"))],  # the only class: every weight would be zero
])
def test_out_of_range_config_value_exits_3(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(bad)) == 3
    assert "config error:" in capsys.readouterr().err


def test_config_file_not_utf8_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("# caf\xe9\ntiling.window = 64\n".encode("latin-1"))
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(bad)) == 3
    assert "config error:" in capsys.readouterr().err


def test_z_stride_may_exceed_z_window(tmp_path):
    cfg = tmp_path / "sparse_z.cfg"
    cfg.write_text("tiling.z_window = 8\ntiling.z_stride = 16\n")
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(cfg)) == 0


def test_missing_volume_exits_4(tmp_path):
    out = tmp_path / "hm.hmc"
    code = run_cli(
        "infer", str(tmp_path / "none.wts"),
        "--volume", str(tmp_path / "missing.vol"), "--out", str(out),
    )
    assert code == 4


def _forged_header(path, magic, dims):
    """A 100-byte file whose header claims a payload of many gigabytes."""
    import struct

    header = magic + struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<f", 10.0)
    path.write_bytes(header + bytes(100 - len(header)))
    return str(path)


def test_pick_forged_oversize_header_exits_4(tmp_path, capsys):
    heatmap = _forged_header(tmp_path / "forged.hmc", b"HMC1", (6, 1024, 2048, 2048))
    assert run_cli("pick", "--heatmap", heatmap, "--out", str(tmp_path / "p.picks")) == 4
    assert "truncated while reading payload" in capsys.readouterr().err


def test_infer_forged_oversize_volume_header_exits_4(tmp_path, capsys):
    volume = _forged_header(tmp_path / "forged.vol", b"VOL1", (1024, 2048, 2048))
    code = run_cli("infer", str(tmp_path / "none.wts"), "--volume", volume, "--out", str(tmp_path / "hm.hmc"))
    assert code == 4
    assert "truncated while reading payload" in capsys.readouterr().err


def test_infer_forged_checkpoint_block_exits_4(tmp_path, small_cfg, capsys):
    """A WTS2 file with the right magic and config text whose first block
    claims 65535^3 floats: infer exits 4 before it reads them."""
    import struct

    vol = tmp_path / "scene.vol"
    write_volume(Volume3D(np.zeros((16, 32, 32), dtype=np.float32), 10.0), vol)
    ckpt = tmp_path / "a.wts"
    nets.save_weights(ckpt, nets.build_net(nets.NetConfig(variant="A", in_depth=16, window_hw=32,
                                                          widths=(4, 4, 4))))
    name = b"stem.weight"
    block = struct.pack("<I", len(name)) + name + struct.pack("<5I", 4, 65535, 65535, 65535, 1)
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[:wts_blocks_start(data) + 4] + block + bytes(64))
    code = run_cli("infer", str(ckpt), "--config", small_cfg, "--variant", "A",
                   "--volume", str(vol), "--out", str(tmp_path / "hm.hmc"))
    assert code == 4
    assert "truncated while reading data" in capsys.readouterr().err


def test_infer_repeated_checkpoint_block_exits_4(tmp_path, small_cfg, capsys):
    """A WTS2 file that names a parameter twice: infer exits 4."""
    vol = tmp_path / "scene.vol"
    write_volume(Volume3D(np.zeros((16, 32, 32), dtype=np.float32), 10.0), vol)
    ckpt = tmp_path / "a.wts"
    nets.save_weights(ckpt, nets.build_net(nets.NetConfig(variant="A", in_depth=16, window_hw=32,
                                                          widths=(4, 4, 4))))
    append_wts_block(ckpt, "bott.bias", np.full(4, 7.0))
    code = run_cli("infer", str(ckpt), "--config", small_cfg,
                   "--volume", str(vol), "--out", str(tmp_path / "hm.hmc"))
    assert code == 4
    assert "parameter 'bott.bias' repeated" in capsys.readouterr().err


def test_plan_names_uncovered_z_ranges(tmp_path, capsys):
    cfg = tmp_path / "sparse_z.cfg"
    cfg.write_text("tiling.z_window = 8\ntiling.z_stride = 16\n")
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(cfg)) == 0
    assert "gaps: z 8-15, z 24-31, z 40-47\n" in capsys.readouterr().out


def test_plan_without_gaps_says_none(capsys):
    assert run_cli("plan", "--dims", "184", "630", "630") == 0
    assert "gaps: none\n" in capsys.readouterr().out


def test_usage_error_exits_2():
    assert run_cli("plan") == 2
    assert run_cli("frobnicate") == 2


SMALL_CFG = """\
pipeline.spacing = 10.0
tiling.window = 32
tiling.xy_stride = 16
tiling.pad_to = 64
tiling.z_window = 16
tiling.z_stride = 8
nms.kernel = 7
class.blob.radius = 40.0
class.blob.sigma_vox = 2.0
class.blob.detect_threshold = 0.5
class.blob.match_radius_tau = 80.0
class.blob.metric_weight = 1.0
"""


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL_CFG)
    return str(p)


def test_tracer_records_a_command_span_on_every_run(tmp_path, small_cfg, capsys):
    """The benchmark's tracer wraps `cli.cmd_gen` while it records; each `run`
    inside the recording reaches the wrapper, also once the parser is built."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    gen = ["gen", "--config", small_cfg, "--dims", "8", "16", "16", "--counts", "blob=0",
           "--out-volume", str(tmp_path / "s.vol"), "--out-picks", str(tmp_path / "s.picks")]
    assert run(gen) == 0
    tracer = tracer_mod.Tracer()
    with tracer.recording("gen"):
        assert run(gen) == 0 and run(gen) == 0
    spans, _ = tracer.phases["gen"]
    assert [span[2] for span in spans].count("cli.gen") == 2


def test_gen_is_deterministic(tmp_path, small_cfg):
    args = [
        "gen", "--config", small_cfg, "--seed", "7",
        "--dims", "32", "64", "64", "--counts", "blob=4",
        "--noise-sigma", "0.02",
    ]
    run_cli(*args, "--out-volume", str(tmp_path / "a.vol"), "--out-picks", str(tmp_path / "a.picks"))
    run_cli(*args, "--out-volume", str(tmp_path / "b.vol"), "--out-picks", str(tmp_path / "b.picks"))
    assert (tmp_path / "a.vol").read_bytes() == (tmp_path / "b.vol").read_bytes()
    assert (tmp_path / "a.picks").read_text() == (tmp_path / "b.picks").read_text()


def test_gen_rasterize_pick_eval_chain(tmp_path, small_cfg, capsys):
    vol = tmp_path / "scene.vol"
    gt = tmp_path / "scene.picks"
    assert run_cli(
        "gen", "--config", small_cfg, "--seed", "3",
        "--dims", "32", "64", "64", "--counts", "blob=5",
        "--noise-sigma", "0.0", "--min-separation", "120.0",
        "--out-volume", str(vol), "--out-picks", str(gt),
    ) == 0

    hm = tmp_path / "target.hmc"
    assert run_cli(
        "rasterize", "--config", small_cfg,
        "--picks", str(gt), "--dims", "32", "64", "64", "--out", str(hm),
    ) == 0
    heat = read_heatmap(hm)
    assert heat.data.shape == (1, 32, 64, 64)
    assert heat.data.max() <= 1.0

    picks = tmp_path / "pred.picks"
    assert run_cli(
        "pick", "--config", small_cfg, "--heatmap", str(hm), "--out", str(picks),
    ) == 0

    assert run_cli(
        "eval", "--config", small_cfg, "--pred", str(picks), "--gt", str(gt),
    ) == 0
    out = capsys.readouterr().out
    assert "weighted_score=1.0" in out
    assert "class.blob.fbeta=1.0" in out


def test_eval_self_match_is_one(tmp_path, small_cfg, capsys):
    gt = tmp_path / "g.picks"
    run_cli(
        "gen", "--config", small_cfg, "--seed", "11",
        "--dims", "32", "64", "64", "--counts", "blob=6",
        "--out-volume", str(tmp_path / "g.vol"), "--out-picks", str(gt),
    )
    capsys.readouterr()
    assert run_cli("eval", "--config", small_cfg, "--pred", str(gt), "--gt", str(gt)) == 0
    assert "weighted_score=1.0" in capsys.readouterr().out


def test_infer_shares_one_net_per_checkpoint_across_workers(tmp_path, monkeypatch):
    """Variant-B ensemble: any worker count writes the same bytes, and each
    checkpoint is loaded once however many threads run it."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SMALL_CFG.replace("tiling.window = 32", "tiling.window = 16")
                   .replace("tiling.xy_stride = 16", "tiling.xy_stride = 8")
                   .replace("tiling.pad_to = 64", "tiling.pad_to = 32")
                   .replace("tiling.z_window = 16", "tiling.z_window = 8"))
    vol = tmp_path / "scene.vol"
    assert run_cli("gen", "--config", str(cfg), "--seed", "5", "--dims", "16", "32", "32",
                   "--counts", "blob=3", "--out-volume", str(vol),
                   "--out-picks", str(tmp_path / "scene.picks")) == 0
    ckpts = []
    for seed in (1, 2):
        ncfg = nets.NetConfig(variant="B", in_depth=16, window_hw=16, widths=(4, 4, 4, 4),
                              decoder_width=4, seed=seed)
        ckpts.append(str(tmp_path / f"m{seed}.wts"))
        nets.save_weights(ckpts[-1], nets.build_net(ncfg))
    loads = collections.Counter()
    load_net = nets.load_net

    def counting_load_net(path, config=None):
        loads[str(path)] += 1
        return load_net(path, config)

    monkeypatch.setattr(nets, "load_net", counting_load_net)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = {}
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}.hmc"
            loads.clear()
            assert run_cli("infer", *ckpts, "--config", str(cfg), "--variant", "B", "--volume", str(vol),
                           "--workers", str(workers), "--out", str(out)) == 0
            assert loads == {p: 1 for p in ckpts}
            outs[workers] = out.read_bytes()
    finally:
        sys.setswitchinterval(interval)
    assert outs[1] == outs[2] == outs[4]


def test_infer_rejects_uncovered_plan_before_any_forward(tmp_path, monkeypatch, capsys):
    """z_stride 16 over 8-deep windows skips rows 8-15 of a 32-deep volume:
    infer exits 4 before it runs a single forward."""
    cfg = tmp_path / "sparse_z.cfg"
    cfg.write_text(SMALL_CFG.replace("tiling.z_window = 16", "tiling.z_window = 8")
                   .replace("tiling.z_stride = 8", "tiling.z_stride = 16"))
    vol = tmp_path / "scene.vol"
    write_volume(Volume3D(np.zeros((32, 48, 48), dtype=np.float32), 10.0), vol)
    ckpt = str(tmp_path / "a.wts")
    nets.save_weights(ckpt, nets.build_net(nets.NetConfig(variant="A", in_depth=8, window_hw=32,
                                                          widths=(4, 4, 4, 4), decoder_width=4)))
    forwards = []
    load_net = nets.load_net

    def counting_load_net(path, config=None):
        net = load_net(path, config)
        forward = net.forward

        def counted(x, train=True):
            forwards.append(x.shape)
            return forward(x, train=train)

        net.forward = counted
        return net

    monkeypatch.setattr(nets, "load_net", counting_load_net)
    code = run_cli("infer", ckpt, "--config", str(cfg), "--variant", "A",
                   "--volume", str(vol), "--out", str(tmp_path / "hm.hmc"))
    assert code == 4
    assert "window plan leaves voxels uncovered" in capsys.readouterr().err
    assert forwards == []


TINY_CFG = (SMALL_CFG.replace("tiling.window = 32", "tiling.window = 16")
            .replace("tiling.xy_stride = 16", "tiling.xy_stride = 8")
            .replace("tiling.pad_to = 64", "tiling.pad_to = 32")
            .replace("tiling.z_window = 16", "tiling.z_window = 8"))


def _train_then_infer(tmp_path, *net_flags):
    """gen one scene, train a tiny variant-A net on it without --window-hw and
    with the given net flags, then infer that scene with no net flag; returns
    infer's exit code and output path."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    vol = scenes / "s.vol"
    assert run_cli("gen", "--config", str(cfg), "--seed", "4", "--dims", "16", "32", "32",
                   "--counts", "blob=2", "--out-volume", str(vol), "--out-picks", str(scenes / "s.picks")) == 0
    flags = ("--variant", "A", "--widths", "4,4,4", *net_flags)
    ckpt = str(tmp_path / "m.wts")
    assert run_cli("train", "--config", str(cfg), "--data", str(scenes), "--out", ckpt, *flags,
                   "--epochs", "1", "--warmup-epochs", "0", "--batch-size", "2") == 0
    out = tmp_path / "hm.hmc"
    return run_cli("infer", ckpt, "--config", str(cfg), "--volume", str(vol), "--out", str(out)), out


def test_default_train_then_infer_share_the_config_window(tmp_path):
    """train builds its net at tiling.window (16 here), as infer does."""
    code, out = _train_then_infer(tmp_path)
    assert code == 0
    assert read_heatmap(out).data.shape == (1, 16, 32, 32)


def test_strided_depth_pool_checkpoint_can_be_inferred(tmp_path):
    code, out = _train_then_infer(tmp_path, "--strided-depth-pool")
    assert code == 0
    assert read_heatmap(out).data.shape == (1, 16, 32, 32)


def test_default_infer_runs_an_a_checkpoint_trained_with_a_decoder_width(tmp_path):
    """Variant A has no decoder; the width it was trained with needs no flag at infer."""
    code, out = _train_then_infer(tmp_path, "--decoder-width", "8")
    assert code == 0
    assert read_heatmap(out).data.shape == (1, 16, 32, 32)


def test_infer_takes_window_and_net_from_the_checkpoint(tmp_path, small_cfg):
    """A checkpoint at window 16 and depth 8 runs under a config of window 32 and
    z_window 16: infer reads neither, and the heatmap equals tiled inference of
    that net at the checkpoint's window."""
    vol, ckpt = tmp_path / "scene.vol", tmp_path / "a.wts"
    write_volume(Volume3D(np.random.default_rng(3).random((12, 20, 24), dtype=np.float32), 10.0), vol)
    net = nets.build_net(nets.NetConfig(variant="A", in_depth=8, window_hw=16, widths=(3, 4, 5),
                                        decoder_width=7, seed=2))
    nets.save_weights(ckpt, net)
    assert run_cli("infer", str(ckpt), "--config", small_cfg, "--volume", str(vol),
                   "--out", str(tmp_path / "hm.hmc")) == 0
    cfg = parse_config(SMALL_CFG)
    want = tiled_inference([lambda w: net.forward(w, train=False)], read_volume(vol), window_hw=16,
                           xy_stride=cfg.xy_stride, pad_to=cfg.pad_to, z_window=8, z_stride=cfg.z_stride)
    assert read_heatmap(tmp_path / "hm.hmc").data.tobytes() == want.data.tobytes()


def _config_text(**fields_):
    cfg = dict(variant="A", in_depth=16, window_hw=32, class_count=1, widths=(4, 4, 4),
               decoder_width=16, strided_depth_pool=False) | fields_
    return repr(tuple(cfg.values())).encode()


NOT_WRITTEN = "is not one that save_weights writes"


def _oversize_text_length(path):
    data = path.read_bytes()
    path.write_bytes(data[:12] + (1 << 20).to_bytes(4, "little") + data[16:])


def _without_blocks(path, text):
    with_config_text(path, text)
    data = path.read_bytes()
    path.write_bytes(data[:wts_blocks_start(data)] + bytes(4))


DOES_NOT_HOLD = "floats, a net of its config"
DOES_NOT_FIT = "does not fit in tiling.pad_to 64"


@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:14]), "truncated while reading config header",
                 id="truncated header"),
    pytest.param(_oversize_text_length, "truncated while reading config text", id="text longer than the file"),
    pytest.param(lambda p: with_config_text(p, _config_text().replace(b"A", b"\xc4")), "bad net config text",
                 id="text not utf-8"),
    pytest.param(lambda p: with_config_text(p, _config_text(), chash=12345), "does not match its hash",
                 id="hash mismatch"),
    pytest.param(lambda p: with_config_text(p, _config_text()[:-8] + b")"), "bad net config text", id="six fields"),
    pytest.param(lambda p: with_config_text(p, _config_text(in_depth=16.0)), NOT_WRITTEN, id="float depth"),
    pytest.param(lambda p: with_config_text(p, _config_text(widths=(4, 4.0, 4))), NOT_WRITTEN, id="float width"),
    pytest.param(lambda p: with_config_text(p, _config_text(strided_depth_pool=0)), NOT_WRITTEN,
                 id="int for a bool"),
    pytest.param(lambda p: with_config_text(p, _config_text(widths=[4, 4, 4])), NOT_WRITTEN, id="list widths"),
    pytest.param(lambda p: with_config_text(p, _config_text().replace(b", ", b",")), NOT_WRITTEN, id="spacing"),
    pytest.param(lambda p: with_config_text(p, _config_text(variant="C")), "bad net config text", id="no such net"),
    pytest.param(lambda p: with_config_text(p, _config_text(widths=(1 << 16,) * 3)), DOES_NOT_HOLD,
                 id="huge widths"),
    pytest.param(lambda p: _without_blocks(p, _config_text(widths=(256,) * 3)), DOES_NOT_HOLD,
                 id="widths and no blocks"),
    pytest.param(lambda p: with_config_text(p, _config_text(class_count=1 << 20)), DOES_NOT_HOLD,
                 id="huge class count"),
    pytest.param(lambda p: with_config_text(p, _config_text(in_depth=1 << 30)), DOES_NOT_FIT, id="deep window"),
    pytest.param(lambda p: with_config_text(p, _config_text(window_hw=1 << 20)), DOES_NOT_FIT, id="wide window"),
])
def test_damaged_checkpoint_config_exits_4(tmp_path, small_cfg, capsys, damage, message):
    """The WTS2 header is checked before any net is built: infer exits 4 on a
    config text that `save_weights` would not write, even under a matching hash,
    on one that names a net the file's blocks cannot hold, and on a window larger
    than the config's pad_to, which would set the padded volume's size."""
    vol, ckpt = tmp_path / "scene.vol", tmp_path / "a.wts"
    write_volume(Volume3D(np.zeros((16, 32, 32), dtype=np.float32), 10.0), vol)
    nets.save_weights(ckpt, nets.build_net(nets.NetConfig(variant="A", in_depth=16, window_hw=32,
                                                          widths=(4, 4, 4))))
    argv = ("infer", str(ckpt), "--config", small_cfg, "--volume", str(vol), "--out", str(tmp_path / "hm.hmc"))
    assert run_cli(*argv) == 0
    capsys.readouterr()
    damage(ckpt)
    assert run_cli(*argv) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("nets_, flags, message", [
    pytest.param([dict(variant="A")], ("--variant", "B"), "a variant A net, not --variant B", id="variant"),
    pytest.param([dict(variant="A", class_count=2)], (), "2 classes, the config has 1", id="class count"),
    pytest.param([dict(variant="A"), dict(variant="B", in_depth=32)], (), "window 32x32, not",
                 id="A + B"),
])
def test_checkpoint_that_does_not_fit_exits_4(tmp_path, small_cfg, capsys, nets_, flags, message):
    """--variant only checks: a checkpoint of another variant exits 4, as does one
    with another class count, and an A + B ensemble whose nets read windows of
    different depth."""
    vol = tmp_path / "scene.vol"
    write_volume(Volume3D(np.zeros((16, 32, 32), dtype=np.float32), 10.0), vol)
    ckpts = []
    for i, fields_ in enumerate(nets_):
        ckpts.append(str(tmp_path / f"m{i}.wts"))
        nets.save_weights(ckpts[-1], nets.build_net(nets.NetConfig(
            **dict(in_depth=16, window_hw=32, widths=(4, 4, 4, 4), decoder_width=4) | fields_)))
    assert run_cli("infer", *ckpts, "--config", small_cfg, *flags, "--volume", str(vol),
                   "--out", str(tmp_path / "hm.hmc")) == 4
    assert message in capsys.readouterr().err


def test_train_on_a_scene_smaller_than_the_window(tmp_path, small_cfg, capsys):
    """An 8x16x16 scene under window 32 and z_window 16 is reflect-padded up
    to one 16x32x32 window, which train keeps as its background window."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    assert run_cli("gen", "--config", small_cfg, "--seed", "1", "--dims", "8", "16", "16", "--counts", "blob=0",
                   "--out-volume", str(scenes / "s.vol"), "--out-picks", str(scenes / "s.picks")) == 0
    ckpt = tmp_path / "m.wts"
    assert run_cli("train", "--config", small_cfg, "--data", str(scenes), "--out", str(ckpt), "--variant", "A",
                   "--widths", "4,4,4", "--epochs", "1", "--warmup-epochs", "0") == 0
    assert "trained on 1 windows" in capsys.readouterr().out and ckpt.exists()


@pytest.mark.parametrize("argv", [
    *[("plan", "--dims", "64", "64", "64", *bad) for bad in (("--xy-stride", "0"), ("--xy-stride", "-1"))],
    ("plan", "--dims", "64", "-8", "64"),
    ("rasterize", "--picks", "none.picks", "--out", "none.hmc", "--dims", "8", "0", "32"),
    *[("infer", "none.wts", "--volume", "none.vol", "--out", "none.hmc", *bad) for bad in (
        ("--xy-stride", "0"), ("--xy-stride", "-1"), ("--edge-floor", "0"), ("--edge-floor", "1.5"),
        ("--workers", "0"))],
    ("pick", "--heatmap", "none.hmc", "--out", "none.picks", "--offset", "0.7"),
    ("rasterize", "--picks", "none.picks", "--out", "none.hmc", "--dims", "8", "32", "32", "--offset", "0.7"),
    ("train", "--data", "none", "--out", "none.wts", "--offset", "0.7"),
    ("train", "--data", "none", "--out", "none.wts", "--window-hw", "1024"),
    ("train", "--data", "none", "--out", "none.wts", "--window-hw", "20"),  # no net: 20 % 8 != 0
    *[("train", "--data", "none", "--out", "none.wts", *bad) for bad in (
        ("--epochs", "-1"), ("--warmup-epochs", "-1"), ("--batch-size", "0"),
        ("--warmup-epochs", "3", "--epochs", "2"), ("--lr", "nan"), ("--lr", "-1"), ("--weight-decay", "nan"))],
    *[("gen", "--dims", "8", "32", "32", "--counts", "apo_ferritin=1", "--out-volume", "none/none.vol",
       "--out-picks", "none/none.picks", *bad) for bad in (
        ("--noise-sigma", "nan"), ("--min-separation", "nan"), ("--dims", "8", "0", "32"),
        ("--counts", "apo_ferritin=-1"))],
], ids=lambda argv: " ".join((argv[0], *argv[-2:])))
def test_bad_cli_override_exits_3(argv, capsys):
    """A flag that overrides a config field is checked like the same value in a
    config file, before any input is read."""
    assert run_cli(*argv) == 3
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("line, flags", [
    # The nets' pixel shuffles need a multiple of 8.
    pytest.param("tiling.window = 20", (), id="window 20"),
    # Variant A halves the depth twice.
    pytest.param("tiling.z_window = 6", ("--variant", "A"), id="A z_window 6"),
    # Variant B has no depth-halving layer for the flag to replace.
    pytest.param("", ("--variant", "B", "--strided-depth-pool"), id="B strided-depth-pool"),
    # A decoder needs at least one channel, in either variant.
    *[pytest.param("", ("--variant", v, "--decoder-width", w), id=f"{v} decoder-width {w}")
      for v in ("A", "B") for w in ("0", "-1")],
])
@pytest.mark.parametrize("command", [
    ("train", "--data", "none", "--out", "none.wts"),
], ids=lambda argv: argv[0])
def test_no_net_for_the_config_and_flags_exits_3(tmp_path, capsys, line, flags, command):
    """Config values and net flags that no net can be built at are config
    errors, found before any input is read."""
    cfg = tmp_path / "net.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(*command, "--config", str(cfg), *flags) == 3
    assert "config error: no net can be built" in capsys.readouterr().err
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(cfg)) == 0  # plan builds no net


@pytest.mark.parametrize("command", [
    ("train", "--data", "none", "--out", "none.wts"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("widths", ["4,x", "", "4,,4", "4.0,8,8"])
def test_widths_that_are_not_integers_exit_2(capsys, command, widths):
    assert run_cli(*command, "--widths", widths) == 2
    assert "argument --widths: invalid stage_widths value" in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["blob=x", "blob", "blob=1=2", "blob="])
def test_counts_that_do_not_parse_exit_2(capsys, counts):
    argv = ("gen", "--dims", "8", "32", "32", "--out-volume", "none/none.vol", "--out-picks", "none/none.picks")
    assert run_cli(*argv, "--counts", counts) == 2
    assert "argument --counts: invalid class_counts value" in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["blob=1,blob=2", "blob=2,blob=2"])
def test_repeated_class_in_counts_exits_3(tmp_path, small_cfg, capsys, counts):
    """A class named twice in --counts is a config error, as an unknown class
    is; neither count silently wins."""
    out = tmp_path / "s.vol"
    assert run_cli("gen", "--config", small_cfg, "--dims", "8", "32", "32", "--counts", counts,
                   "--out-volume", str(out), "--out-picks", str(tmp_path / "s.picks")) == 3
    assert "config error: class 'blob' repeated in --counts" in capsys.readouterr().err
    assert not out.exists()


def test_flags_exist_only_where_they_act():
    commands = build_parser()._subparsers._group_actions[0].choices
    having = {flag: sorted(name for name, p in commands.items() if flag in p._option_string_actions)
              for flag in ("--seed", "--offset", "--variant", "--widths", "--decoder-width",
                           "--strided-depth-pool", "--window-hw", "--no-blend-weight")}
    assert having == {"--seed": ["gen", "train"], "--offset": ["pick", "rasterize", "train"],
                      "--variant": ["infer", "plan", "train"], "--widths": ["train"], "--decoder-width": ["train"],
                      "--strided-depth-pool": ["train"], "--window-hw": ["train"], "--no-blend-weight": []}


def test_config_flags_set_no_default_of_their_own():
    """A flag stored under a config field's name sets no default, so the
    dataclass's own default applies. --variant reads NetConfig's default on
    train and plan, since the window depth needs it before the net's config
    exists, and none on infer, where it only checks the checkpoints; --seed
    keeps 0, since gen's SceneSpec reads it too."""
    commands = build_parser()._subparsers._group_actions[0].choices
    names = {f.name for cls in (PipelineConfig, TrainConfig, nets.NetConfig) for f in fields(cls)} - {"seed"}
    found = collections.defaultdict(set)
    for command, p in commands.items():
        for action in p._actions:
            if action.dest in names:
                found[command].add(action.dest)
                store_true = isinstance(action, argparse._StoreTrueAction)
                builds = action.dest == "variant" and command != "infer"
                own = nets.NetConfig.variant if builds else False if store_true else None
                assert action.default is own, (command, action.option_strings, action.default)
    assert found["train"] == {"offset", "variant", "widths", "decoder_width", "strided_depth_pool", "epochs",
                              "base_lr", "warmup_epochs", "weight_decay", "batch_size", "loss", "window"}
    assert found["infer"] == {"variant", "xy_stride", "edge_floor"}


def test_parser_is_built_once_and_keeps_no_flag_between_runs(capsys):
    assert build_parser() is build_parser()
    assert run_cli("plan", "--dims", "16", "64", "64", "--xy-stride", "32") == 0
    assert "stride 32)" in capsys.readouterr().out
    assert run_cli("plan", "--dims", "16", "64", "64") == 0
    assert f"stride {PipelineConfig().xy_stride})" in capsys.readouterr().out


def test_every_subcommand_has_its_cmd_function():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert commands and all(callable(getattr(cli, f"cmd_{name}", None)) for name in commands)
    assert {name for name in vars(cli) if name.startswith("cmd_")} == {f"cmd_{name}" for name in commands}


def test_run_calls_the_command_in_place_at_each_call(monkeypatch):
    """A function put in place of `cli.cmd_<name>` after the parser is built is
    the one `run` calls, with the loaded config; the benchmark's tracer relies
    on this."""
    assert run_cli("plan", "--dims", "16", "64", "64") == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_plan", lambda args, cfg: calls.append((args.dims, cfg)) or 0)
    assert run_cli("plan", "--dims", "16", "64", "64", "--xy-stride", "32") == 0
    assert [(dims, type(cfg), cfg.xy_stride) for dims, cfg in calls] == [([16, 64, 64], PipelineConfig, 32)]


REFILL = """
import contextlib, io, resource, sys
import numpy as np
from tomopick.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert sys.argv[1:] == [] or run(sys.argv[1:]) == 0
a = np.ones(6 << 20, dtype=np.float32)
del a
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
a = np.ones(6 << 20, dtype=np.float32)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_cli_keeps_freed_blocks_in_the_heap():
    """After any command, a freed 24 MiB block is refilled in place with no page
    fault; in a fresh process that ran no command, glibc hands it back to the
    kernel and the refill faults its pages in again."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    faults = [int(subprocess.run([sys.executable, "-c", REFILL, *argv], capture_output=True, text=True,
                                 check=True, env=env, timeout=60).stdout)
              for argv in ([], ["plan", "--dims", "16", "64", "64"])]
    assert faults[0] > 0 and faults[1] == 0


def test_every_config_field_but_classes_has_a_file_key():
    """The flat file's keys are declared on PipelineConfig's fields, in field order."""
    assert [name for name, _ in _KEYS.values()] == [f.name for f in fields(PipelineConfig) if f.name != "classes"]


@pytest.mark.parametrize("line", ["tiling.window = 64.0", "nms.kernel = 7.0", "nms.kernel = 4", "nms.kernel = 0"])
def test_int_key_given_a_float_or_bad_nms_kernel_exits_3(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(bad)) == 3
    assert "config error:" in capsys.readouterr().err


def test_float_key_given_an_int_parses_to_a_float():
    spacing = parse_config("pipeline.spacing = 10\n").spacing
    assert type(spacing) is float and spacing == 10.0


@pytest.mark.parametrize("name", ["", "a,b", "a=b", " a", "a ", "a\t"])
def test_class_name_the_picks_format_cannot_hold_is_rejected(name):
    """A picks line splits on ',' and is stripped, and --counts splits on '='."""
    with pytest.raises(ValueError, match="class name"):
        ParticleClassSpec(name=name, radius=40.0, sigma_vox=2.0)


@pytest.mark.parametrize("name", ["", "a,b", " a", "a "])
def test_config_class_name_the_picks_format_cannot_hold_exits_3(tmp_path, capsys, name):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_class_block().replace("class.a.", f"class.{name}.") + "\n")
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(bad)) == 3
    assert "config error: class" in capsys.readouterr().err


def test_gen_unknown_class_in_counts_exits_3(tmp_path, small_cfg, capsys):
    out = tmp_path / "s.vol"
    assert run_cli("gen", "--config", small_cfg, "--dims", "8", "32", "32", "--counts", "nope=1",
                   "--out-volume", str(out), "--out-picks", str(tmp_path / "s.picks")) == 3
    assert "config error: unknown class 'nope' in --counts" in capsys.readouterr().err
    assert not out.exists()


def test_train_data_without_volumes_exits_4(tmp_path, small_cfg, capsys):
    out = tmp_path / "m.wts"
    assert run_cli("train", "--config", small_cfg, "--data", str(tmp_path), "--out", str(out)) == 4
    assert "error: no .vol files in" in capsys.readouterr().err
    assert not out.exists()


def test_train_volume_without_its_picks_exits_4(tmp_path, small_cfg, capsys):
    data = tmp_path / "data"
    data.mkdir()
    write_volume(Volume3D(np.zeros((16, 32, 32), dtype=np.float32), spacing=10.0), data / "s.vol")
    out = tmp_path / "m.wts"
    assert run_cli("train", "--config", small_cfg, "--data", str(data), "--out", str(out)) == 4
    assert "error: missing picks file for" in capsys.readouterr().err
    assert not out.exists()
