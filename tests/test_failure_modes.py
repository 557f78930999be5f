"""Failure-mode sweep: byte-mutated and truncated input files through `cli.run`.

Whatever the damage to a VOL1 volume, an HMC1 heatmap, a WTS1 checkpoint, a
picks file or a config file, the command must end with exit 0 (the damage was
harmless), 3 (config error) or 4 (data error): never with an uncaught
exception or a MemoryError.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomopick import nets
from tomopick.cli import run

CFG = """\
pipeline.spacing = 10.0
tiling.window = 16
tiling.xy_stride = 8
tiling.pad_to = 16
tiling.z_window = 8
tiling.z_stride = 8
nms.kernel = 3
class.blob.radius = 20.0
class.blob.sigma_vox = 2.0
class.blob.detect_threshold = 0.5
class.blob.match_radius_tau = 40.0
class.blob.metric_weight = 1.0
"""
NET = ("--variant", "A", "--widths", "4,4,4", "--decoder-width", "4")


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Undamaged inputs: an 8x16x16 scene, its picks and target heatmap, an
    untrained checkpoint and the config; returns the directory."""
    work = tmp_path_factory.mktemp("sweep")
    (work / "scene.cfg").write_text(CFG)
    cfg = ("--config", str(work / "scene.cfg"))
    assert run(["gen", *cfg, "--seed", "2", "--dims", "8", "16", "16", "--counts", "blob=2",
                "--out-volume", str(work / "scene.vol"), "--out-picks", str(work / "scene.picks")]) == 0
    assert run(["rasterize", *cfg, "--picks", str(work / "scene.picks"), "--dims", "8", "16", "16",
                "--out", str(work / "scene.hmc")]) == 0
    nets.save_weights(work / "scene.wts", nets.build_net(nets.NetConfig(
        variant="A", in_depth=8, window_hw=16, widths=(4, 4, 4), decoder_width=4)))
    return work


def _commands(work, damaged, kind):
    """The commands that read the damaged file, with clean files for the rest."""
    cfg = str(damaged if kind == "cfg" else work / "scene.cfg")
    vol = str(damaged if kind == "vol" else work / "scene.vol")
    wts = str(damaged if kind == "wts" else work / "scene.wts")
    hmc = str(damaged if kind == "hmc" else work / "scene.hmc")
    picks = str(damaged if kind == "picks" else work / "scene.picks")
    out = str(work / "out")
    commands = {
        "infer": ["infer", wts, "--config", cfg, *NET, "--volume", vol, "--out", out + ".hmc"],
        "pick": ["pick", "--config", cfg, "--heatmap", hmc, "--out", out + ".picks"],
        "eval": ["eval", "--config", cfg, "--pred", picks, "--gt", str(work / "scene.picks")],
        "rasterize": ["rasterize", "--config", cfg, "--picks", picks, "--dims", "8", "16", "16",
                      "--out", out + ".hmc"],
    }
    used = {"vol": ["infer"], "wts": ["infer"], "hmc": ["pick"], "picks": ["eval", "rasterize"],
            "cfg": list(commands)}[kind]
    return [commands[name] for name in used]


@st.composite
def _damage(draw, data: bytes):
    """Truncate, overwrite or insert up to four bytes; positions favour the header."""
    pos = draw(st.one_of(st.integers(0, min(40, len(data))), st.integers(0, len(data))))
    how = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    if how == "truncate":
        return data[:pos]
    new = draw(st.binary(min_size=1, max_size=4))
    return data[:pos] + new + data[pos + len(new) * (how == "overwrite"):]


# Damaged weights may overflow the sigmoid to exactly 0 or 1, with a warning.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["vol", "wts", "hmc", "picks", "cfg"]), data=st.data())
def test_damaged_input_exits_0_3_or_4(clean, kind, data):
    src = clean / f"scene.{kind}"
    damaged = clean / f"damaged.{kind}"
    damaged.write_bytes(data.draw(_damage(src.read_bytes()), label="damaged"))
    for argv in _commands(clean, damaged, kind):
        assert run(argv) in (0, 3, 4), argv
