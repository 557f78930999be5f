"""Valid but unusual inputs through `cli.run`: gen → infer → pick → eval must exit 0.

The sweep covers axes of length 1, volumes shallower than the net's depth
window, planes far smaller than `tiling.pad_to` and not square, one class or
two, scenes without particles, one checkpoint or an ensemble of two, and a
saturated (all-ones) heatmap through pick and eval.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomopick import nets
from tomopick.cli import run
from tomopick.volgrid import Heatmap, read_heatmap, write_heatmap

Z_WINDOW = 4
BASE_CFG = f"""\
pipeline.spacing = 10.0
tiling.window = 32
tiling.xy_stride = 16
tiling.pad_to = 48
tiling.z_window = {Z_WINDOW}
tiling.z_stride = 4
nms.kernel = 3
"""
# Radius 4 is a margin of 0.4 voxels, so a particle fits in an axis of length 1.
# Untrained nets output values of order 1e-4: the threshold lets them pick.
CLASSES = ("dot", "speck")
CLASS_CFG = """\
class.{0}.radius = 4.0
class.{0}.sigma_vox = 1.0
class.{0}.detect_threshold = 0.00001
class.{0}.match_radius_tau = 20.0
class.{0}.metric_weight = 1.0
"""


@pytest.fixture(scope="module")
def setups(tmp_path_factory):
    """(config path, {variant: checkpoint path}) for one class and for two."""
    work = tmp_path_factory.mktemp("valid_inputs")
    found = {}
    for k in (1, 2):
        cfg = work / f"classes{k}.cfg"
        cfg.write_text(BASE_CFG + "".join(CLASS_CFG.format(name) for name in CLASSES[:k]))
        ckpts = {}
        for variant, widths in (("A", (4, 4, 4)), ("B", (4, 4, 4, 4))):
            ckpts[variant] = work / f"{variant}{k}.wts"
            nets.save_weights(ckpts[variant], nets.build_net(nets.NetConfig(
                variant=variant, in_depth=Z_WINDOW * (1 if variant == "A" else 2), window_hw=32,
                class_count=k, widths=widths, decoder_width=4)))
        found[k] = (cfg, ckpts)
    return found


def _run(*argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    assert code == 0, (argv, err.getvalue())


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from("AB"),
    classes=st.integers(1, 2),
    dims=st.tuples(st.integers(1, 2 * Z_WINDOW + 3), st.integers(1, 24), st.integers(1, 24)),
    counts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    models=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_valid_unusual_inputs_run_through_the_cli(setups, variant, classes, dims, counts, models, seed):
    cfg, ckpts = setups[classes]
    names = CLASSES[:classes]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        vol, gt, hm, pred = (work / name for name in ("scene.vol", "scene.picks", "scene.hmc", "pred.picks"))
        _run("gen", "--config", cfg, "--seed", seed, "--dims", *dims,
             "--counts", ",".join(f"{n}={c}" for n, c in zip(names, counts)),
             "--out-volume", vol, "--out-picks", gt)
        _run("infer", *[ckpts[variant]] * models, "--config", cfg, "--variant", variant,
             "--volume", vol, "--out", hm)
        assert read_heatmap(hm).data.shape == (classes, *dims)
        _run("pick", "--config", cfg, "--heatmap", hm, "--out", pred)
        _run("eval", "--config", cfg, "--pred", pred, "--gt", gt)
        write_heatmap(Heatmap(np.ones((classes, *dims), dtype=np.float32), 10.0), hm)
        _run("pick", "--config", cfg, "--heatmap", hm, "--out", pred)
        _run("eval", "--config", cfg, "--pred", pred, "--gt", gt)
