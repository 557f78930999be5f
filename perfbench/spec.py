"""Metric catalogue of the benchmark: every metric's name, unit and direction,
the bounds of the end-to-end metrics, and which end-to-end metric each
per-layer metric is expected to move on which workload.

BENCHMARK.json at the repository root repeats these lists; the self-tests
check that the two agree.
"""

# Registered layer names of ToyNet._layers, in registration order.
VARIANT_A_LAYERS = (
    "stem", "act0", "s1", "act1", "dp1", "s2", "act2", "dp2",
    "bott", "act3", "up_depth", "head", "shuffle",
)
VARIANT_B_LAYERS = (
    "stem", "act0", "s1", "act1", "dp1", "s2", "act2", "dp2",
    "s3", "act3", "dp3", "fusion",
    "dec0.conv", "dec0.act", "dec0.scse", "dec0.up",
    "dec1.conv", "dec1.act", "dec1.scse", "dec1.up",
    "dec2.conv", "dec2.act", "dec2.scse", "dec2.up",
    "head",
)

WORKLOADS = (
    ("toy_chain",
     "training dominates (~95%): variant-A layer fwd+bwd, losses, optimizer move wall_s; "
     "gen/rasterize/picks I/O move setup_s and wall_s; learned fbeta"),
    ("infer_b_ensemble",
     "variant-B forward dominates: B layers, nets.forward, per-worker checkpoint reload move "
     "wall_s; 1 worker; tiler overhead, NMS and matching are small"),
    ("oracle_dense",
     "zero-cost oracle nets: tiler aggregation and f64 accumulators move wall_s, peak_rss_mb; "
     "dense NMS with planted ties and P*G matching move wall_s; layers read 0"),
)

# (name, unit, better, bound). bound is the share of the parent's median by
# which the metric may worsen; setup_s has the largest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("fbeta", "score", "higher", 0.1),
    ("ops_ok_frac", "ratio", "higher", 0.01),
)


def _per_layer():
    out = []
    forward = list(VARIANT_B_LAYERS) + [n for n in VARIANT_A_LAYERS if n not in VARIANT_B_LAYERS]
    out += [(f"layers.{n}.forward_s", "s", "lower") for n in forward]
    out += [(f"layers.{n}.backward_s", "s", "lower") for n in VARIANT_A_LAYERS]
    out += [
        ("nets.forward_s", "s", "lower"),
        ("nets.forward_calls", "count", "lower"),
        ("nets.load_net_s", "s", "lower"),
        ("nets.load_net_calls", "count", "lower"),
        ("losses.loss_s", "s", "lower"),
        ("train.optimizer_s", "s", "lower"),
        ("train.windows", "count", "higher"),
        ("tiler.tiled_inference_s", "s", "lower"),
        ("tiler.aggregate_s", "s", "lower"),
        ("tiler.predict_s", "s", "lower"),
        ("tiler.windows", "count", "higher"),
        ("tiler.overhead_ms_per_window", "ms", "lower"),
        ("tiler.ensemble_s", "s", "lower"),
        ("tiler.accum_bytes", "bytes_computed", "lower"),
        ("postproc.extract_picks_s", "s", "lower"),
        ("postproc.local_maxima_s", "s", "lower"),
        ("postproc.candidates", "count", "lower"),
        ("postproc.picks", "count", "higher"),
        ("postproc.picks_per_candidate", "ratio", "higher"),
        ("metric.evaluate_s", "s", "lower"),
        ("metric.match_class_s", "s", "lower"),
        ("metric.pairs_scanned", "count", "lower"),
        ("metric.tp", "count", "higher"),
        ("metric.fp", "count", "lower"),
        ("metric.fn", "count", "lower"),
        ("volgrid.read_volume_s", "s", "lower"),
        ("volgrid.write_volume_s", "s", "lower"),
        ("volgrid.read_heatmap_s", "s", "lower"),
        ("volgrid.write_heatmap_s", "s", "lower"),
        ("volgrid.bytes", "bytes", "lower"),
        ("coords.rasterize_heatmap_s", "s", "lower"),
        ("coords.read_picks_s", "s", "lower"),
        ("coords.write_picks_s", "s", "lower"),
        ("synthdata.generate_tomogram_s", "s", "lower"),
        ("cli.gen_s", "s", "lower"),
        ("cli.train_s", "s", "lower"),
        ("cli.infer_s", "s", "lower"),
        ("cli.pick_s", "s", "lower"),
        ("cli.eval_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.stage_coverage", "ratio", "higher"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()

# Which end-to-end metric a per-layer metric should move, on which workload,
# keyed by metric-name prefix (the longest matching prefix applies). Layers
# that are not on a workload's path read 0 there.
LAYER_MAP = {
    "layers.": "wall_s on infer_b_ensemble (variant-B forward) and on toy_chain "
               "(variant-A forward and backward); 0 on oracle_dense",
    "nets.": "wall_s on infer_b_ensemble (one checkpoint load per model per worker)",
    "losses.": "wall_s on toy_chain",
    "train.": "wall_s on toy_chain",
    "tiler.": "wall_s and peak_rss_mb on oracle_dense; barely infer_b_ensemble. "
              "accum_bytes is computed as (C + 1) * D * H * W * 8 per model, not measured. "
              "overhead_ms_per_window is (aggregate - predict busy time) / windows: "
              "per-window overhead (every workload runs one worker)",
    "postproc.": "wall_s on oracle_dense",
    "metric.": "wall_s on oracle_dense",
    "volgrid.": "wall_s on infer_b_ensemble and oracle_dense (heatmap and volume files)",
    "coords.": "setup_s on every workload; wall_s on toy_chain",
    "synthdata.": "setup_s on every workload",
    "cli.": "which user-facing command a layer change reaches (toy_chain, infer_b_ensemble)",
    "trace.": "none: tracing overhead and the share of traced wall time in top-level stages",
}


def expected_effect(metric_name: str) -> str:
    prefix = max((p for p in LAYER_MAP if metric_name.startswith(p)), key=len)
    return LAYER_MAP[prefix]
