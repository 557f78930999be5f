"""Command-line front end: gen, rasterize, train, infer, pick, eval, plan.

`run` loads the config and calls `cmd_<command>(args, cfg)`, looked up by name at each call.

Exit codes: 0 success, 2 usage error (argparse), 3 configuration error,
4 data/runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import metric, nets, postproc, tiler, train as train_mod
from .config import ConfigError, PipelineConfig, load_config
from .coords import PickSet, rasterize_heatmap, read_picks, write_picks, PicksFormatError
from .losses import LOSSES
from .synthdata import PlacementError, SceneSpec, generate_tomogram
from .volgrid import Heatmap, Volume3D, VolumeError, read_heatmap, read_volume, write_heatmap, write_volume

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4


def _load_cfg(args) -> PipelineConfig:
    if min(getattr(args, "dims", None) or [1]) < 1:  # gen, rasterize and plan, before any input is read
        raise ConfigError(f"--dims must be at least 1, got {args.dims}")
    cfg = load_config(args.config) if args.config else PipelineConfig()
    # `replace` re-runs the config's checks: a bad override exits 3 like the same value in a file.
    return replace(cfg, **_given(args, PipelineConfig))


def _given(args, config_class) -> dict:
    """The flags given (not None) whose dest names a field of `config_class`. Such flags set
    no default of their own, so an absent flag leaves the dataclass's default in force."""
    return {f.name: getattr(args, f.name) for f in fields(config_class)
            if getattr(args, f.name, None) is not None}


def _counts_per_class(pairs: tuple[tuple[str, int], ...], cfg: PipelineConfig) -> tuple[int, ...]:
    counts = dict.fromkeys(c.name for c in cfg.classes)
    for name, num in pairs:
        if name not in counts:
            raise ConfigError(f"unknown class {name!r} in --counts")
        if counts[name] is not None:
            raise ConfigError(f"class {name!r} repeated in --counts")
        counts[name] = num
    return tuple(counts[c.name] or 0 for c in cfg.classes)


@contextlib.contextmanager
def _config_values(prefix: str = ""):
    """A ValueError raised by a config object built inside is a config error (exit 3)."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{prefix}{e}") from e


def _window_depth(variant: str, cfg: PipelineConfig) -> int:
    """Depth of a net's input window: variant B reads twice the configured
    z_window and reduces it in its stages."""
    return cfg.z_window if variant == "A" else 2 * cfg.z_window


def stage_widths(text: str) -> tuple[int, ...]:
    """--widths: comma-separated integers; argparse reports a bad value as a usage error."""
    return tuple(int(w) for w in text.split(","))


def class_counts(text: str) -> tuple[tuple[str, int], ...]:
    """--counts: name=N[,name=N...]; argparse reports a bad value as a usage error."""
    pairs = [part.split("=") for part in text.split(",") if part]
    return tuple((name, int(num)) for name, num in pairs)


def cmd_gen(args, cfg: PipelineConfig) -> int:
    with _config_values():
        spec = SceneSpec(dims=tuple(args.dims), classes=cfg.classes,
                         counts=_counts_per_class(args.counts, cfg), noise_sigma=args.noise_sigma,
                         min_separation=args.min_separation, seed=args.seed, spacing=cfg.spacing)
    volume, picks = generate_tomogram(spec)
    write_volume(volume, args.out_volume)
    write_picks(picks, list(cfg.classes), args.out_picks)
    print(f"wrote {args.out_volume} ({volume.dims}) and {args.out_picks} ({len(picks)} picks)")
    return EXIT_OK


def cmd_rasterize(args, cfg: PipelineConfig) -> int:
    picks = read_picks(args.picks, list(cfg.classes), cfg.spacing)
    hm = rasterize_heatmap(picks, list(cfg.classes), tuple(args.dims), offset=cfg.offset)
    write_heatmap(hm, args.out)
    print(f"wrote {args.out}: {hm.classes} channels at {hm.dims}")
    return EXIT_OK


def cmd_train(args, cfg: PipelineConfig) -> int:
    with _config_values("no net can be built: "):
        ncfg = nets.NetConfig(in_depth=_window_depth(args.variant, cfg), window_hw=cfg.window,
                              class_count=len(cfg.classes), **_given(args, nets.NetConfig))
    with _config_values():
        tcfg = train_mod.TrainConfig(**_given(args, train_mod.TrainConfig))
    data_dir = Path(args.data)
    vols = sorted(data_dir.glob("*.vol"))
    if not vols:
        raise VolumeError(f"no .vol files in {data_dir}")
    dataset = []
    for vol_path in vols:
        picks_path = vol_path.with_suffix(".picks")
        if not picks_path.exists():
            raise PicksFormatError(f"missing picks file for {vol_path}")
        volume = read_volume(vol_path)
        picks = read_picks(picks_path, list(cfg.classes), cfg.spacing)
        dataset.extend(train_mod.scene_windows(volume, picks, cfg, ncfg))
    net = nets.build_net(ncfg)
    result = train_mod.train(dataset, net, tcfg)
    net.set_params(result.ema_weights if args.use_ema else result.weights)
    nets.save_weights(args.out, net)
    log_path = Path(args.out).with_suffix(".loss.txt")
    log_path.write_text("".join(f"{i} {v!r}\n" for i, v in enumerate(result.loss_history)))
    print(f"trained on {len(dataset)} windows for {tcfg.epochs} epochs")
    if result.loss_history:
        print(f"loss: first {result.loss_history[0]:.6f} last {result.loss_history[-1]:.6f}")
    print(f"wrote {args.out} and {log_path}")
    return EXIT_OK


def cmd_infer(args, cfg: PipelineConfig) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    volume = read_volume(args.volume)
    loaded = [nets.load_net(p) for p in args.checkpoints]  # each built at the config its file stores
    first = loaded[0].config
    for path, ncfg in zip(args.checkpoints, (net.config for net in loaded)):
        if args.variant not in (None, ncfg.variant):
            raise nets.CheckpointError(f"{path}: a variant {ncfg.variant} net, not --variant {args.variant}")
        if ncfg.class_count != len(cfg.classes):
            raise nets.CheckpointError(f"{path}: {ncfg.class_count} classes, the config has {len(cfg.classes)}")
        if (ncfg.in_depth, ncfg.window_hw) != (first.in_depth, first.window_hw):
            raise nets.CheckpointError(f"{path}: window {ncfg.in_depth}x{ncfg.window_hw}, "
                                       f"not {args.checkpoints[0]}'s {first.in_depth}x{first.window_hw}")
    if max(first.in_depth, first.window_hw) > cfg.pad_to:  # bounds the padded volume by the config's pad_to
        raise nets.CheckpointError(f"{args.checkpoints[0]}: window {first.in_depth}x{first.window_hw} "
                                   f"does not fit in tiling.pad_to {cfg.pad_to}")
    # Inference-mode forwards write nothing on the net, so the workers share one net per checkpoint.
    predictors = [functools.partial(net.forward, train=False) for net in loaded]
    hm = tiler.tiled_inference(
        predictors,
        volume,
        window_hw=first.window_hw,
        xy_stride=cfg.xy_stride,
        pad_to=cfg.pad_to,
        z_window=first.in_depth,
        z_stride=cfg.z_stride,
        edge_floor=cfg.edge_floor,
        workers=args.workers,
    )
    write_heatmap(hm, args.out)
    print(f"wrote {args.out}: ensemble of {len(predictors)} model(s)")
    return EXIT_OK


def cmd_pick(args, cfg: PipelineConfig) -> int:
    hm = read_heatmap(args.heatmap)
    picks = postproc.extract_picks(hm, list(cfg.classes), kernel=cfg.nms_kernel, offset=cfg.offset)
    write_picks(picks, list(cfg.classes), args.out)
    print(f"wrote {args.out}: {len(picks)} picks")
    return EXIT_OK


def cmd_eval(args, cfg: PipelineConfig) -> int:
    preds = read_picks(args.pred, list(cfg.classes), cfg.spacing)
    gts = read_picks(args.gt, list(cfg.classes), cfg.spacing)
    ev = metric.evaluate(preds, gts, list(cfg.classes))
    width = max(len(c.name) for c in cfg.classes)
    print(f"{'class':<{width}}  {'tp':>4} {'fp':>4} {'fn':>4}  {'prec':>7} {'recall':>7} {'fbeta':>7}")
    for cs in ev.per_class:
        m = cs.match
        print(
            f"{cs.name:<{width}}  {m.tp:>4} {m.fp:>4} {m.fn:>4}  "
            f"{cs.precision:>7.4f} {cs.recall:>7.4f} {cs.fbeta:>7.4f}"
        )
    print(f"weighted score: {ev.weighted:.6f}")
    for cs in ev.per_class:
        print(f"class.{cs.name}.fbeta={cs.fbeta!r}")
    print(f"weighted_score={ev.weighted!r}")
    return EXIT_OK


def cmd_plan(args, cfg: PipelineConfig) -> int:
    z_window = _window_depth(args.variant, cfg)
    plan, pads = tiler.padded_plan(args.dims, cfg.window, cfg.xy_stride, cfg.pad_to, z_window, cfg.z_stride)
    padded = [n + a + b for n, (a, b) in zip(args.dims, pads)]
    oz, oy, ox = plan.origins_z, plan.origins_y, plan.origins_x
    print(f"volume {' x '.join(map(str, args.dims))}, padded to {' x '.join(map(str, padded))}")
    print(f"XY windows: {len(oy)} x {len(ox)} (window {cfg.window}, stride {cfg.xy_stride})")
    print(f"Z windows: {len(oz)} (window {z_window}, stride {cfg.z_stride})")
    for axis, origins in (("z", oz), ("y", oy), ("x", ox)):
        txt = " ".join(f"{o}{'*' if clamped else ''}" for o, clamped in origins)
        print(f"{axis} origins: {txt}")
    print("(* = final window clamped to the volume edge)")
    missed = [f"{axis} {a}-{b - 1}" for axis, a, b in plan.gaps(padded)]
    print(f"gaps: {', '.join(missed) or 'none'}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tomopick", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, offset=False):
        p.add_argument("--config", help="pipeline config file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if offset:
            p.add_argument("--offset", type=float, help="1.0 or 0.5")

    p = sub.add_parser("gen", help="generate a synthetic tomogram + ground-truth picks")
    common(p, seed=True)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("D", "H", "W"))
    p.add_argument("--counts", type=class_counts, required=True,
                   help="name=N[,name=N...] particles per class")
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--min-separation", type=float, default=0.0)
    p.add_argument("--out-volume", required=True)
    p.add_argument("--out-picks", required=True)

    p = sub.add_parser("rasterize", help="rasterize picks into a target heatmap")
    common(p, offset=True)
    p.add_argument("--picks", required=True)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("D", "H", "W"))
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a toy net on a directory of scenes")
    common(p, seed=True, offset=True)
    p.add_argument("--variant", choices=["A", "B"], default=nets.NetConfig.variant)
    p.add_argument("--widths", type=stage_widths)
    p.add_argument("--decoder-width", type=int)
    p.add_argument("--strided-depth-pool", action="store_true",
                   help="ablation: strided depth convs instead of pooling")
    p.add_argument("--data", required=True, help="dir of paired .vol/.picks scene files")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", dest="base_lr", type=float)
    p.add_argument("--warmup-epochs", type=int)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--loss", choices=sorted(LOSSES))
    p.add_argument("--window-hw", dest="window", type=int, default=None, help="override tiling.window")
    p.add_argument("--use-ema", action="store_true", help="save EMA weights instead of raw")
    p.add_argument("--out", required=True, help="output WTS2 checkpoint")

    p = sub.add_parser("infer", help="tiled sliding-window inference")
    common(p)
    p.add_argument("--variant", choices=["A", "B"], help="check that every checkpoint is of this variant")
    p.add_argument("--volume", required=True)
    p.add_argument("checkpoints", nargs="+", help="one or more WTS2 checkpoints to ensemble")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--xy-stride", type=int, default=None, help="override tiling.xy_stride")
    p.add_argument("--edge-floor", type=float, default=None, help="override blend.edge_floor; 1 is uniform")

    p = sub.add_parser("pick", help="extract picks from a heatmap")
    common(p, offset=True)
    p.add_argument("--heatmap", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predicted picks against ground truth")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)

    p = sub.add_parser("plan", help="print the window plan for a volume")
    common(p)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("D", "H", "W"))
    p.add_argument("--xy-stride", type=int, default=None, help="override tiling.xy_stride")
    p.add_argument("--variant", choices=["A", "B"], default=nets.NetConfig.variant,
                   help="net whose window depth to plan")

    return parser


def run(argv: list[str]) -> int:
    with contextlib.suppress(AttributeError, OSError):  # mallopt is glibc's; see README, Conventions
        libc = ctypes.CDLL(None)  # freed blocks under 32 MiB stay in the heap, trimmed past 256 MiB
        libc.mallopt(-3, 32 << 20), libc.mallopt(-1, 256 << 20)  # M_MMAP_, M_TRIM_THRESHOLD
    try:
        args = build_parser().parse_args(argv)
        # By name, not bound in the parser, so a wrapper set on `cli.cmd_<name>` is the one called.
        return globals()[f"cmd_{args.command}"](args, _load_cfg(args))
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (VolumeError, PicksFormatError, PlacementError, nets.CheckpointError,
            train_mod.TrainingDivergedError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
