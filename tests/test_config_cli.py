"""Config file round trips and the command-line front end."""

import collections
import sys

import numpy as np
import pytest

from tomopick import nets
from tomopick.cli import build_parser, run
from tomopick.config import (
    ConfigError,
    PipelineConfig,
    default_classes,
    format_config,
    parse_config,
    sigma_for_radius,
)
from tomopick.coords import ParticleClassSpec
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
    "blend.edge_floor = 1.0",
    "pipeline.spacing = 0.0",
    "pipeline.spacing = nan",
    "pipeline.spacing = inf",
    *[pytest.param(_class_block(**{fld: value}), id=f"class.a.{fld} = {value}") for fld, value in (
        ("radius", "nan"), ("radius", "inf"), ("sigma_vox", "inf"), ("match_radius_tau", "nan"),
        ("match_radius_tau", "inf"), ("metric_weight", "inf"), ("metric_weight", "nan"))],
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
    """A WTS1 file with the right magic and config hash whose first block
    claims 65535^3 floats: infer exits 4 before it reads them."""
    import struct

    vol = tmp_path / "scene.vol"
    write_volume(Volume3D(np.zeros((16, 32, 32), dtype=np.float32), 10.0), vol)
    ckpt = tmp_path / "a.wts"
    nets.save_weights(ckpt, nets.build_net(nets.NetConfig(variant="A", in_depth=16, window_hw=32,
                                                          widths=(4, 4, 4))))
    name = b"stem.weight"
    block = struct.pack("<I", len(name)) + name + struct.pack("<5I", 4, 65535, 65535, 65535, 1)
    ckpt.write_bytes(ckpt.read_bytes()[:16] + block + bytes(64))
    code = run_cli("infer", str(ckpt), "--config", small_cfg, "--variant", "A", "--widths", "4,4,4",
                   "--volume", str(vol), "--out", str(tmp_path / "hm.hmc"))
    assert code == 4
    assert "truncated while reading data" in capsys.readouterr().err


def test_plan_names_uncovered_z_ranges(tmp_path, capsys):
    cfg = tmp_path / "sparse_z.cfg"
    cfg.write_text("tiling.z_window = 8\ntiling.z_stride = 16\n")
    assert run_cli("plan", "--dims", "64", "64", "64", "--config", str(cfg)) == 0
    assert "gaps: z 8-15, z 24-31, z 40-47\n" in capsys.readouterr().out


def test_plan_without_gaps_says_none(capsys):
    assert run_cli("plan", "--dims", "184", "630", "630") == 0
    assert "gaps: none\n" in capsys.readouterr().out


def test_bad_thread_env_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("TOMOPICK_THREADS", "abc")
    assert run_cli("plan", "--dims", "64", "64", "64") == 3
    assert "config error: TOMOPICK_THREADS" in capsys.readouterr().err


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

    def counting_load_net(path, config):
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
            assert run_cli("infer", *ckpts, "--config", str(cfg), "--variant", "B",
                           "--widths", "4,4,4,4", "--decoder-width", "4", "--volume", str(vol),
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

    def counting_load_net(path, config):
        net = load_net(path, config)
        forward = net.forward

        def counted(x, train=True):
            forwards.append(x.shape)
            return forward(x, train=train)

        net.forward = counted
        return net

    monkeypatch.setattr(nets, "load_net", counting_load_net)
    code = run_cli("infer", ckpt, "--config", str(cfg), "--variant", "A", "--widths", "4,4,4,4",
                   "--decoder-width", "4", "--volume", str(vol), "--out", str(tmp_path / "hm.hmc"))
    assert code == 4
    assert "window plan leaves voxels uncovered" in capsys.readouterr().err
    assert forwards == []


TINY_CFG = (SMALL_CFG.replace("tiling.window = 32", "tiling.window = 16")
            .replace("tiling.xy_stride = 16", "tiling.xy_stride = 8")
            .replace("tiling.pad_to = 64", "tiling.pad_to = 32")
            .replace("tiling.z_window = 16", "tiling.z_window = 8"))


def _train_then_infer(tmp_path, *net_flags):
    """gen one scene, train a tiny variant-A net on it without --window-hw,
    then infer that scene with the same net flags; returns infer's exit code
    and output path."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    vol = scenes / "s.vol"
    assert run_cli("gen", "--config", str(cfg), "--seed", "4", "--dims", "16", "32", "32",
                   "--counts", "blob=2", "--out-volume", str(vol), "--out-picks", str(scenes / "s.picks")) == 0
    flags = ("--variant", "A", "--widths", "4,4,4", "--decoder-width", "4", *net_flags)
    ckpt = str(tmp_path / "m.wts")
    assert run_cli("train", "--config", str(cfg), "--data", str(scenes), "--out", ckpt, *flags,
                   "--epochs", "1", "--warmup-epochs", "0", "--batch-size", "2") == 0
    out = tmp_path / "hm.hmc"
    return run_cli("infer", ckpt, "--config", str(cfg), *flags, "--volume", str(vol), "--out", str(out)), out


def test_default_train_then_infer_share_the_config_window(tmp_path):
    """train builds its net at tiling.window (16 here), as infer does."""
    code, out = _train_then_infer(tmp_path)
    assert code == 0
    assert read_heatmap(out).data.shape == (1, 16, 32, 32)


def test_strided_depth_pool_checkpoint_can_be_inferred(tmp_path):
    code, out = _train_then_infer(tmp_path, "--strided-depth-pool")
    assert code == 0
    assert read_heatmap(out).data.shape == (1, 16, 32, 32)


@pytest.mark.parametrize("argv", [
    *[("plan", "--dims", "64", "64", "64", *bad) for bad in (("--xy-stride", "0"), ("--xy-stride", "-1"))],
    *[("infer", "none.wts", "--volume", "none.vol", "--out", "none.hmc", *bad) for bad in (
        ("--xy-stride", "0"), ("--xy-stride", "-1"), ("--edge-floor", "0"), ("--edge-floor", "1"),
        ("--workers", "0"))],
    ("train", "--data", "none", "--out", "none.wts", "--window-hw", "1024"),
    ("train", "--data", "none", "--out", "none.wts", "--window-hw", "20"),  # no net: 20 % 8 != 0
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
])
@pytest.mark.parametrize("command", [
    ("train", "--data", "none", "--out", "none.wts"),
    ("infer", "none.wts", "--volume", "none.vol", "--out", "none.hmc"),
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
    ("infer", "none.wts", "--volume", "none.vol", "--out", "none.hmc"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("widths", ["4,x", "", "4,,4", "4.0,8,8"])
def test_widths_that_are_not_integers_exit_2(capsys, command, widths):
    assert run_cli(*command, "--widths", widths) == 2
    assert "argument --widths: invalid stage_widths value" in capsys.readouterr().err


def test_flags_exist_only_where_they_act():
    commands = build_parser()._subparsers._group_actions[0].choices
    having = {flag: sorted(name for name, p in commands.items() if flag in p._option_string_actions)
              for flag in ("--seed", "--offset", "--strided-depth-pool", "--window-hw")}
    assert having == {"--seed": ["gen", "train"], "--offset": ["pick", "rasterize", "train"],
                      "--strided-depth-pool": ["infer", "train"], "--window-hw": ["train"]}
