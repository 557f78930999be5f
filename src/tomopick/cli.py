"""Command-line front end: gen, rasterize, train, infer, pick, eval, plan.

Exit codes: 0 success, 2 usage error (argparse), 3 configuration error,
4 data/runtime error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
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


def _default_workers() -> int:
    raw = os.environ.get("TOMOPICK_THREADS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ConfigError(f"TOMOPICK_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    # Flags stored under a config field's name override it through `replace`, which
    # re-runs the config's checks: a bad override exits 3 like the same value in a file.
    fields = ("offset", "window", "xy_stride", "edge_floor")
    return replace(cfg, **{f: getattr(args, f) for f in fields if getattr(args, f, None) is not None})


def _parse_counts(spec: str, cfg: PipelineConfig) -> tuple[int, ...]:
    counts = {c.name: 0 for c in cfg.classes}
    for part in spec.split(","):
        if not part:
            continue
        name, _, num = part.partition("=")
        if name not in counts:
            raise ConfigError(f"unknown class {name!r} in --counts")
        counts[name] = int(num)
    return tuple(counts[c.name] for c in cfg.classes)


def _window_depth(variant: str, cfg: PipelineConfig) -> int:
    """Depth of a net's input window: variant B reads twice the configured
    z_window and reduces it in its stages."""
    return cfg.z_window if variant == "A" else 2 * cfg.z_window


def _net_config(args, cfg: PipelineConfig, seed: int = 0) -> nets.NetConfig:
    """The net that the config and net flags describe; exit 3 if none can be built."""
    try:
        return nets.NetConfig(
            variant=args.variant,
            in_depth=_window_depth(args.variant, cfg),
            window_hw=cfg.window,
            class_count=len(cfg.classes),
            widths=args.widths,
            decoder_width=args.decoder_width,
            seed=seed,
            strided_depth_pool=args.strided_depth_pool,
        )
    except ValueError as e:
        raise ConfigError(f"no net can be built: {e}") from e


def stage_widths(text: str) -> tuple[int, ...]:
    """--widths: comma-separated integers; argparse reports a bad value as a usage error."""
    return tuple(int(w) for w in text.split(","))


def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    spec = SceneSpec(
        dims=tuple(args.dims),
        classes=cfg.classes,
        counts=_parse_counts(args.counts, cfg),
        noise_sigma=args.noise_sigma,
        min_separation=args.min_separation,
        seed=args.seed,
        spacing=cfg.spacing,
    )
    volume, picks = generate_tomogram(spec)
    write_volume(volume, args.out_volume)
    write_picks(picks, list(cfg.classes), args.out_picks)
    print(f"wrote {args.out_volume} ({volume.dims}) and {args.out_picks} ({len(picks)} picks)")
    return EXIT_OK


def cmd_rasterize(args) -> int:
    cfg = _load_cfg(args)
    picks = read_picks(args.picks, list(cfg.classes), cfg.spacing)
    hm = rasterize_heatmap(picks, list(cfg.classes), tuple(args.dims), offset=cfg.offset)
    write_heatmap(hm, args.out)
    print(f"wrote {args.out}: {hm.classes} channels at {hm.dims}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    ncfg = _net_config(args, cfg, seed=args.seed)
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
    tcfg = train_mod.TrainConfig(
        epochs=args.epochs,
        base_lr=args.lr,
        warmup_epochs=args.warmup_epochs,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        seed=args.seed,
        loss=args.loss,
    )
    net = nets.build_net(ncfg)
    result = train_mod.train(dataset, net, tcfg)
    net.set_params(result.ema_weights if args.use_ema else result.weights)
    nets.save_weights(args.out, net)
    log_path = Path(args.out).with_suffix(".loss.txt")
    log_path.write_text("".join(f"{i} {v!r}\n" for i, v in enumerate(result.loss_history)))
    print(f"trained on {len(dataset)} windows for {args.epochs} epochs")
    if result.loss_history:
        print(f"loss: first {result.loss_history[0]:.6f} last {result.loss_history[-1]:.6f}")
    print(f"wrote {args.out} and {log_path}")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _load_cfg(args)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    ncfg = _net_config(args, cfg)
    volume = read_volume(args.volume)
    # Inference-mode forwards write nothing on the net, so the workers share one net per checkpoint.
    predictors = [functools.partial(nets.load_net(p, ncfg).forward, train=False) for p in args.checkpoints]
    hm = tiler.tiled_inference(
        predictors,
        volume,
        window_hw=cfg.window,
        xy_stride=cfg.xy_stride,
        pad_to=cfg.pad_to,
        z_window=ncfg.in_depth,
        z_stride=cfg.z_stride,
        edge_floor=1.0 if args.no_blend_weight else cfg.edge_floor,
        workers=args.workers,
    )
    write_heatmap(hm, args.out)
    print(f"wrote {args.out}: ensemble of {len(predictors)} model(s)")
    return EXIT_OK


def cmd_pick(args) -> int:
    cfg = _load_cfg(args)
    hm = read_heatmap(args.heatmap)
    picks = postproc.extract_picks(hm, list(cfg.classes), kernel=cfg.nms_kernel, offset=cfg.offset)
    write_picks(picks, list(cfg.classes), args.out)
    print(f"wrote {args.out}: {len(picks)} picks")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
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


def cmd_plan(args) -> int:
    cfg = _load_cfg(args)
    d, h, w = args.dims
    z_window = _window_depth(args.variant, cfg)
    plan = tiler.padded_plan(d, cfg.window, cfg.xy_stride, cfg.pad_to, z_window, cfg.z_stride)
    oz, oy, ox = plan.origins_z, plan.origins_y, plan.origins_x
    print(f"volume {d} x {h} x {w}, XY padded to {cfg.pad_to}")
    print(f"XY windows: {len(oy)} x {len(ox)} (window {cfg.window}, stride {cfg.xy_stride})")
    print(f"Z windows: {len(oz)} (window {z_window}, stride {cfg.z_stride})")
    for axis, origins in (("z", oz), ("y", oy), ("x", ox)):
        txt = " ".join(f"{o}{'*' if clamped else ''}" for o, clamped in origins)
        print(f"{axis} origins: {txt}")
    print("(* = final window clamped to the volume edge)")
    missed = [f"{axis} {a}-{b - 1}" for axis, a, b in plan.gaps((d, cfg.pad_to, cfg.pad_to))]
    print(f"gaps: {', '.join(missed) or 'none'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tomopick", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, offset=False):
        p.add_argument("--config", help="pipeline config file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if offset:
            p.add_argument("--offset", type=float, choices=[1.0, 0.5], default=None)

    p = sub.add_parser("gen", help="generate a synthetic tomogram + ground-truth picks")
    common(p, seed=True)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("D", "H", "W"))
    p.add_argument("--counts", required=True, help="name=N[,name=N...] particles per class")
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--min-separation", type=float, default=0.0)
    p.add_argument("--out-volume", required=True)
    p.add_argument("--out-picks", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rasterize", help="rasterize picks into a target heatmap")
    common(p, offset=True)
    p.add_argument("--picks", required=True)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("D", "H", "W"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rasterize)

    def net_flags(p):
        p.add_argument("--variant", choices=["A", "B"], default="A")
        p.add_argument("--widths", type=stage_widths, default="8,16,32,32")
        p.add_argument("--decoder-width", type=int, default=16)
        p.add_argument("--strided-depth-pool", action="store_true",
                       help="ablation: strided depth convs instead of pooling")

    p = sub.add_parser("train", help="train a toy net on a directory of scenes")
    common(p, seed=True, offset=True)
    net_flags(p)
    p.add_argument("--data", required=True, help="dir of paired .vol/.picks scene files")
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup-epochs", type=int, default=4)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--loss", choices=sorted(LOSSES), default="weighted")
    p.add_argument("--window-hw", dest="window", type=int, default=None, help="override tiling.window")
    p.add_argument("--use-ema", action="store_true", help="save EMA weights instead of raw")
    p.add_argument("--out", required=True, help="output WTS1 checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="tiled sliding-window inference")
    common(p)
    net_flags(p)
    p.add_argument("--volume", required=True)
    p.add_argument("checkpoints", nargs="+", help="one or more WTS1 checkpoints to ensemble")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--xy-stride", type=int, default=None, help="override tiling.xy_stride")
    p.add_argument("--edge-floor", type=float, default=None, help="override blend.edge_floor")
    p.add_argument("--no-blend-weight", action="store_true", help="uniform weights: blend edge floor 1")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("pick", help="extract picks from a heatmap")
    common(p, offset=True)
    p.add_argument("--heatmap", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pick)

    p = sub.add_parser("eval", help="score predicted picks against ground truth")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plan", help="print the window plan for a volume")
    common(p)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("D", "H", "W"))
    p.add_argument("--xy-stride", type=int, default=None, help="override tiling.xy_stride")
    p.add_argument("--variant", choices=["A", "B"], default="A", help="net whose window depth to plan")
    p.set_defaults(func=cmd_plan)

    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
