"""Tracing from outside the program.

While a phase is recorded, the tracer replaces tomopick's public functions by
attribute (in every tomopick module that holds a reference, so names that
`cli` imported directly are covered too) and wraps every layer that a net
registers in `ToyNet._layers` as `nets.build_net` returns it. Spans are kept in
memory and written as JSON lines at the end; untraced phases run the program's
own, unwrapped functions.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from tomopick import cli, coords, losses, metric, nets, postproc, synthdata, tiler, train, volgrid

# Functions whose calls become spans named "<module>.<function>".
PLAIN = (
    (synthdata, "generate_tomogram"),
    (coords, "rasterize_heatmap"),
    (coords, "read_picks"),
    (coords, "write_picks"),
    (tiler, "tiled_inference"),
    (tiler, "ensemble"),
    (postproc, "extract_picks"),
    (metric, "evaluate"),
    (nets, "load_net"),
)
# volgrid file I/O: function -> index of its path argument.
VOLGRID_IO = {"read_volume": 0, "write_volume": 1, "read_heatmap": 0, "write_heatmap": 1}
CLI_COMMANDS = ("gen", "train", "infer", "pick", "eval")


class Tracer:
    def __init__(self):
        self.phases: dict[str, tuple[list, list]] = {}  # label -> (spans, counts)
        self._spans = None
        self._counts = None
        self._undo = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.main_thread = threading.main_thread().ident

    @contextmanager
    def recording(self, label: str):
        """Install the wrappers, record one phase, then remove them."""
        spans, counts = [], []
        self._spans, self._counts = spans, counts
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._spans = self._counts = None
            self.phases[label] = (spans, counts)

    def count(self, name: str, value) -> None:
        if self._counts is not None:
            self._counts.append((name, value))

    def wrap(self, name, fn, before=None, after=None):
        """Span around fn. before(bound) may replace arguments; after(bound,
        result) runs outside the span to record counts."""
        sig = inspect.signature(fn) if before or after else None

        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(bound)
                args, kwargs = bound.args, bound.kwargs
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), t0, t1))
            if after is not None:
                after(bound, result)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --- installing wrappers ----------------------------------------------

    def _replace(self, orig, new) -> None:
        """Point every tomopick module attribute (and LOSSES entry) that holds
        orig at new."""
        for modname, module in list(sys.modules.items()):
            if modname != "tomopick" and not modname.startswith("tomopick."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)
                    self._undo.append((setattr, module, attr, orig))
        for key, value in losses.LOSSES.items():
            if value is orig:
                losses.LOSSES[key] = new
                self._undo.append((dict.__setitem__, losses.LOSSES, key, orig))

    def _install(self) -> None:
        for module, attr in PLAIN:
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            self._replace(getattr(module, attr), self.wrap(name, getattr(module, attr)))
        for attr, path_index in VOLGRID_IO.items():
            fn = getattr(volgrid, attr)
            self._replace(fn, self.wrap(f"volgrid.{attr}", fn, after=self._file_bytes(path_index)))
        for command in CLI_COMMANDS:
            fn = getattr(cli, f"cmd_{command}")
            self._replace(fn, self.wrap(f"cli.{command}", fn))
        for fn in set(losses.LOSSES.values()):
            self._replace(fn, self.wrap("losses.loss", fn))
        self._replace(train.ema_update, self.wrap("train.optimizer", train.ema_update))
        step = train.AdamW.step
        train.AdamW.step = self.wrap("train.optimizer", step)
        self._undo.append((setattr, train.AdamW, "step", step))
        self._replace(train.train, self.wrap(
            "train.train", train.train,
            after=lambda b, r: self.count("train.windows", len(b.arguments["dataset"]))))
        self._replace(nets.build_net, self.wrap("nets.build_net", nets.build_net, after=self._instrument_net))
        self._replace(tiler.aggregate, self.wrap(
            "tiler.aggregate", tiler.aggregate, before=self._wrap_predictor, after=self._accum_bytes))
        self._replace(postproc.maximum_filter, self.wrap(
            "postproc.maximum_filter", postproc.maximum_filter, after=self._keep_neighborhood_max))
        self._replace(postproc.local_maxima, self.wrap(
            "postproc.local_maxima", postproc.local_maxima, after=self._count_maxima))
        self._replace(metric.match_class, self.wrap(
            "metric.match_class", metric.match_class, after=self._count_matches))

    def _uninstall(self) -> None:
        while self._undo:
            setter, target, key, orig = self._undo.pop()
            setter(target, key, orig)

    # --- before/after hooks -------------------------------------------------

    def _file_bytes(self, path_index):
        def after(bound, result):
            path = list(bound.arguments.values())[path_index]
            self.count("volgrid.bytes", os.path.getsize(path))
        return after

    def _instrument_net(self, bound, net) -> None:
        for lname, layer in net._layers.items():
            layer.forward = self.wrap(f"layers.{lname}.forward", layer.forward)
            layer.backward = self.wrap(f"layers.{lname}.backward", layer.backward)
        net.forward = self.wrap("nets.forward", net.forward)

    def _wrap_predictor(self, bound) -> None:
        bound.arguments["predictor"] = self.wrap("tiler.predict", bound.arguments["predictor"])

    def _accum_bytes(self, bound, heatmap) -> None:
        # float64 numerator (C channels) plus float64 denominator over the
        # padded volume; computed from shapes, not measured.
        voxels = math.prod(bound.arguments["volume"].dims)
        self.count("tiler.accum_bytes", (heatmap.classes + 1) * voxels * 8)

    def _keep_neighborhood_max(self, bound, result) -> None:
        self._local.neighborhood_max = result

    def _count_maxima(self, bound, peaks) -> None:
        args = bound.arguments
        neigh = getattr(self._local, "neighborhood_max", None)
        self._local.neighborhood_max = None
        if neigh is None:
            candidates = len(peaks)
        else:
            mask = args["channel"] == neigh
            if args["min_value"] is not None:
                mask &= args["channel"] >= args["min_value"]
            candidates = int(np.count_nonzero(mask))
        self.count("postproc.candidates", candidates)
        self.count("postproc.picks", len(peaks))

    def _count_matches(self, bound, result) -> None:
        self.count("metric.pairs_scanned", len(bound.arguments["preds"]) * len(bound.arguments["gts"]))
        self.count("metric.tp", result.tp)
        self.count("metric.fp", result.fp)
        self.count("metric.fn", result.fn)

    # --- summaries ----------------------------------------------------------

    def totals(self, label: str) -> dict[str, float]:
        """Per-layer metrics of one recorded phase: summed span durations
        (busy time over all threads), call counts and recorded counts."""
        spans, counts = self.phases[label]
        out = defaultdict(float)
        calls = defaultdict(int)
        for _, _, name, _, t0, t1 in spans:
            out[f"{name}_s"] += t1 - t0
            calls[name] += 1
        for name, value in counts:
            out[name] += value
        out["nets.forward_calls"] = calls["nets.forward"]
        out["nets.load_net_calls"] = calls["nets.load_net"]
        out["tiler.windows"] = calls["tiler.predict"]
        if out["tiler.windows"]:
            out["tiler.overhead_ms_per_window"] = (
                1000.0 * (out["tiler.aggregate_s"] - out["tiler.predict_s"]) / out["tiler.windows"]
            )
        if out["postproc.candidates"]:
            out["postproc.picks_per_candidate"] = out["postproc.picks"] / out["postproc.candidates"]
        return dict(out)

    def stage_time(self, label: str) -> float:
        """Summed duration of the phase's top-level spans on the main thread:
        the blocking stages the workload chains."""
        spans, _ = self.phases[label]
        return sum(t1 - t0 for _, parent, _, tid, t0, t1 in spans
                   if parent is None and tid == self.main_thread)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for label, (spans, counts) in self.phases.items():
                for sid, parent, name, tid, t0, t1 in spans:
                    f.write(json.dumps({"phase": label, "id": sid, "parent": parent, "name": name,
                                        "thread": tid, "start": t0, "end": t1}) + "\n")
                for name, value in counts:
                    f.write(json.dumps({"phase": label, "count": name, "value": value}) + "\n")
