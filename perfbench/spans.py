"""Span recording around bevfuse's public functions, installed from outside
the program.

A ``Tracer`` replaces names in the namespaces that call them (for example
``bevfuse.pipeline.nms``, which ``detect_scene`` resolves at call time) with
wrappers that record spans: name, start, end, parent span and step/frame id.
Spans live in flat arrays in memory and are written out when the run ends.
Self time is a span's duration minus the time its child spans cover.

Tape ops are also timed in backward: the wrapper of ``Tensor._result`` wraps
each node's backward closure, and names that span after the module (image
stream, BEV group, fusion, FPN, header) that was active when the op's forward
ran.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass

import numpy as np

TENSOR_OPS = ("conv2d", "matmul", "bilinear_sample", "scatter_add_rows",
              "gather_rows", "upsample2x", "add_channel_bias")
BEV_GROUPS = 5          # both benchmark configs have five BEV groups
MODULES = ("backbone.image_stream",
           *(f"backbone.bev_group{i}" for i in range(BEV_GROUPS)),
           "backbone.bev_fpn", "fusion.apply_fusion", "detect.header")

# the workloads on which a wrapper must fire
TRAIN = ("overfit_train", "augment_train")
EVAL = ("eval_sweep",)
ALL = TRAIN + EVAL


class Spans:
    """Flat in-memory span store; times are integer nanoseconds so self
    times are exact."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.unit_id = -1           # -1 until the first step or frame

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.unit.append(self.unit_id)
        self.end.append(0)
        self._open.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._open.pop()

    def __len__(self):
        return len(self.name)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "unit": np.frombuffer(self.unit, dtype=np.int32),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64)}

    def self_ns(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span, in nanoseconds."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        return dur, dur - covered

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


class Patcher:
    """Replaces attributes and puts the originals back, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        new = make(func)
        setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        self._saved.append((owner, attr, raw))

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


@dataclass(frozen=True)
class Wrap:
    owner: str              # namespace that calls it: "module" or "module:Class"
    attr: str
    span: str | None        # None for counters without a span
    required_on: tuple[str, ...]


WRAPS = (
    *(Wrap("bevfuse.tensor", op, f"tensor.{op}", TRAIN if op == "gather_rows" else ALL)
      for op in TENSOR_OPS),
    Wrap("bevfuse.tensor:Tensor", "_result", None, ALL),
    Wrap("bevfuse.tensor:Tensor", "backward", "tensor.backward", TRAIN),
    Wrap("bevfuse.tensor:Adam", "step", "tensor.adam_step", TRAIN),
    Wrap("bevfuse.backbone:ImageStream", "forward", "backbone.image_stream", ALL),
    Wrap("bevfuse.backbone:ResidualGroup", "forward", "backbone.bev_group", ALL),
    Wrap("bevfuse.backbone:FpnCombiner", "forward", "backbone.bev_fpn", ALL),
    Wrap("bevfuse.backbone", "apply_fusion", "fusion.apply_fusion", ALL),
    Wrap("bevfuse.detect:DetectionHeader", "forward", "detect.header", ALL),
    Wrap("bevfuse.pipeline", "prepare_scene", "pipeline.prepare_scene", ALL),
    Wrap("bevfuse.pipeline", "voxelize", "geometry.voxelize", ALL),
    Wrap("bevfuse.losses", "assign_anchors", "losses.assign_anchors", ALL),
    Wrap("bevfuse.backbone:DetectorModel", "make_plans", "backbone.make_plans", ALL),
    Wrap("bevfuse.backbone", "build_bev_index", "geometry.build_bev_index", ALL),
    Wrap("bevfuse.backbone", "plan_fusion", "fusion.plan_fusion", ALL),
    Wrap("bevfuse.fusion", "project_points", "geometry.project_points", ALL),
    Wrap("bevfuse.geometry:BevKdTree", "query", "geometry.kdtree_query", ALL),
    Wrap("bevfuse.pipeline", "augment", "data.augment", ("augment_train",)),
    Wrap("bevfuse.pipeline", "scene_loss", "pipeline.scene_loss", TRAIN),
    Wrap("bevfuse.pipeline", "hard_negative_mining", "losses.hard_negative_mining", TRAIN),
    Wrap("bevfuse.pipeline", "total_loss", "losses.total_loss", TRAIN),
    Wrap("bevfuse.pipeline", "detect_scene", "pipeline.detect_scene", ALL),
    Wrap("bevfuse.pipeline", "decode_detections", "detect.decode", ALL),
    Wrap("bevfuse.pipeline", "nms", "detect.nms", ALL),
    Wrap("bevfuse.detect", "rotated_iou_bev", None, EVAL),
    Wrap("bevfuse.evaluation", "rotated_iou_bev", None, EVAL),
    Wrap("bevfuse.evaluation", "match_detections", "evaluation.match", ALL),
    Wrap("bevfuse.evaluation", "pr_curve", "evaluation.ap", ALL),
)


def resolve(owner: str):
    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


# spans that set the module scope for backward attribution
SCOPES = {"backbone.image_stream", "backbone.bev_group", "backbone.bev_fpn",
          "fusion.apply_fusion", "detect.header"}


def _scope_name(span: str, first_arg) -> str | None:
    """Module name for one call, or None for the image stream's own groups
    and pyramid, which run inside the traced image stream."""
    if span == "backbone.bev_group":
        prefix = first_arg.blocks[0].conv1.name         # e.g. "bev.group2.block0.conv1"
        return f"backbone.bev_group{prefix.split('.')[1][5:]}" \
            if prefix.startswith("bev.") else None
    if span == "backbone.bev_fpn":
        return span if first_arg.projs[0].name.startswith("bev.") else None
    return span


class Tracer:
    """Installs every wrapper in ``WRAPS`` and aggregates what they record."""

    def __init__(self):
        self.spans = Spans()
        self.fired: dict[tuple[str, str], int] = {(w.owner, w.attr): 0 for w in WRAPS}
        self.counts: dict[str, int] = {}
        self.module = "other"
        self._bwd_ids: dict[tuple[str, str], int] = {}
        self._patcher = Patcher()

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self):
        for w in WRAPS:
            self._patcher.replace(resolve(w.owner), w.attr,
                                  lambda f, w=w: self._wrapper(w, f))

    def uninstall(self):
        self._patcher.restore()

    def next_unit(self):
        self.spans.unit_id += 1

    def missing(self, workload: str) -> list[str]:
        """Wrappers this workload must fire that never fired."""
        return [f"{w.owner.replace(':', '.')}.{w.attr}" for w in WRAPS
                if workload in w.required_on and not self.fired[(w.owner, w.attr)]]

    # -- wrappers ---------------------------------------------------------------

    def _wrapper(self, w: Wrap, f):
        key = (w.owner, w.attr)
        if w.attr == "_result":
            return self._result_wrapper(key, f)
        if w.span is None:
            return self._iou_wrapper(key, f)
        if w.span in SCOPES:
            return self._scope_wrapper(w.span, key, f)
        fired, spans, nid = self.fired, self.spans, self.spans.intern(w.span)
        after = _AFTER.get(w.span)

        def wrapped(*args, **kwargs):
            fired[key] += 1
            i = spans.open(nid)
            try:
                out = f(*args, **kwargs)
            finally:
                spans.close(i)
            if after is not None:
                after(self, args, kwargs, out)
            return out
        return wrapped

    def _iou_wrapper(self, key, f):
        """Counts only: a span per IoU call would cost more than the call."""
        fired, overlap = self.fired, f"{key[0].split('.')[-1]}.iou_overlap"

        def iou(a, b):
            fired[key] += 1
            v = f(a, b)
            if v > 0:
                self.count(overlap)
            return v
        return iou

    def _scope_wrapper(self, span: str, key, f):
        fired, spans = self.fired, self.spans

        def wrapped(first, *args, **kwargs):
            name = _scope_name(span, first)
            if name is None:
                return f(first, *args, **kwargs)
            fired[key] += 1
            outer, self.module = self.module, name
            i = spans.open(spans.intern(name))
            try:
                return f(first, *args, **kwargs)
            finally:
                spans.close(i)
                self.module = outer
        return wrapped

    def _result_wrapper(self, key, f):
        fired, spans, bwd_ids = self.fired, self.spans, self._bwd_ids

        def result(data, parents, op, backward):
            fired[key] += 1
            scope = (self.module, op)
            nid = bwd_ids.get(scope)
            if nid is None:
                nid = bwd_ids[scope] = spans.intern(f"bwd/{self.module}/{op}")

            def timed_backward(g):
                i = spans.open(nid)
                try:
                    backward(g)
                finally:
                    spans.close(i)
            out = f(data, parents, op, timed_backward)
            if out._backward is not None:
                self.count("tensor.tape_nodes")
            return out
        return result

    # -- aggregation ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self nanoseconds."""
        dur, own = self.spans.self_ns()
        names = np.frombuffer(self.spans.name, dtype=np.int32)
        n = len(self.spans.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        self_t = np.bincount(names, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "total_ns": float(total[i]),
                       "self_ns": float(self_t[i])}
                for i, name in enumerate(self.spans.names)}


def _conv_flop(tr: Tracer, args, kwargs, out):
    c_out, c_in, kh, kw = args[1].shape
    tr.count("tensor.conv2d.flop", 2 * c_out * c_in * kh * kw * out.shape[1] * out.shape[2])


def _plan_pairs(tr: Tracer, args, kwargs, out):
    tr.count("fusion.pairs", int(out.pair_pixel.size))


def _nms_counts(tr: Tracer, args, kwargs, out):
    boxes = args[0]
    threshold = kwargs.get("score_threshold", args[2] if len(args) > 2 else 0.1)
    tr.count("detect.nms.candidates", sum(1 for b in boxes if b.score >= threshold))
    tr.count("detect.nms.kept", len(out))


_AFTER = {"tensor.conv2d": _conv_flop, "fusion.plan_fusion": _plan_pairs,
          "detect.nms": _nms_counts}


# -- per-layer metrics -------------------------------------------------------

# metric -> (unit, kind, key). "self" and "total" sum span times, "bwd_op" and
# "bwd_module" sum backward-node spans, "calls" counts spans, "fired" counts
# wrapper calls and "count" reads a counter; each is then divided by the steps
# or frames traced
PER_LAYER: dict[str, tuple[str, str, str]] = {}
for _op in TENSOR_OPS:
    PER_LAYER[f"tensor.{_op}.fwd_ms"] = ("ms", "self", f"tensor.{_op}")
    PER_LAYER[f"tensor.{_op}.bwd_ms"] = ("ms", "bwd_op", _op)
    PER_LAYER[f"tensor.{_op}.calls"] = ("count", "calls", f"tensor.{_op}")
PER_LAYER.update({
    "tensor.conv2d.mflop": ("MFLOP", "count", "tensor.conv2d.flop"),
    "tensor.backward_ms": ("ms", "total", "tensor.backward"),
    "tensor.tape_nodes": ("count", "count", "tensor.tape_nodes"),
    "tensor.adam_step_ms": ("ms", "self", "tensor.adam_step"),
})
for _m in MODULES:
    PER_LAYER[f"{_m}.fwd_ms"] = ("ms", "total", _m)
    PER_LAYER[f"{_m}.bwd_ms"] = ("ms", "bwd_module", _m)
PER_LAYER.update({
    "backbone.make_plans_ms": ("ms", "self", "backbone.make_plans"),
    "fusion.plan_fusion_ms": ("ms", "self", "fusion.plan_fusion"),
    "fusion.pairs": ("count", "count", "fusion.pairs"),
    "geometry.build_bev_index_ms": ("ms", "self", "geometry.build_bev_index"),
    "geometry.kdtree_query_ms": ("ms", "self", "geometry.kdtree_query"),
    "geometry.kdtree_queries": ("count", "calls", "geometry.kdtree_query"),
    "geometry.voxelize_ms": ("ms", "self", "geometry.voxelize"),
    "geometry.project_points_ms": ("ms", "self", "geometry.project_points"),
    "data.augment_ms": ("ms", "self", "data.augment"),
    "losses.assign_anchors_ms": ("ms", "self", "losses.assign_anchors"),
    "pipeline.prepare_scene_ms": ("ms", "self", "pipeline.prepare_scene"),
    "losses.hard_negative_mining_ms": ("ms", "self", "losses.hard_negative_mining"),
    "losses.total_loss.fwd_ms": ("ms", "self", "losses.total_loss"),
    "pipeline.scene_loss_ms": ("ms", "self", "pipeline.scene_loss"),
    "detect.decode_ms": ("ms", "self", "detect.decode"),
    "detect.nms_ms": ("ms", "self", "detect.nms"),
    "detect.nms.candidates": ("count", "count", "detect.nms.candidates"),
    "detect.nms.kept": ("count", "count", "detect.nms.kept"),
    "detect.iou_calls": ("count", "fired", "bevfuse.detect:rotated_iou_bev"),
    "detect.iou_overlap_ratio": ("ratio", "ratio", "detect"),
    "evaluation.match_ms": ("ms", "self", "evaluation.match"),
    "evaluation.iou_calls": ("count", "fired", "bevfuse.evaluation:rotated_iou_bev"),
    "evaluation.ap_ms": ("ms", "self", "evaluation.ap"),
    "tracing_overhead_pct": ("%", "overhead", ""),
})


def per_layer_metrics(tr: Tracer, units: int, overhead_pct: float) -> dict[str, dict]:
    """Every ``PER_LAYER`` metric, divided by the traced steps or frames.

    Tensor ops and stages report self time. Module scopes (``backbone.*``,
    ``fusion.apply_fusion``, ``detect.header``) and ``tensor.backward_ms``
    report the whole time spent inside them, ops included; a module's
    ``bwd_ms`` sums the backward of every tape node its forward created.
    """
    totals = tr.totals()
    bwd_op: dict[str, float] = {}
    bwd_mod: dict[str, float] = {}
    for name, t in totals.items():
        if name.startswith("bwd/"):
            _, mod, op = name.split("/")
            bwd_op[op] = bwd_op.get(op, 0.0) + t["self_ns"]
            bwd_mod[mod] = bwd_mod.get(mod, 0.0) + t["self_ns"]
    fired = {f"{o}:{a}": n for (o, a), n in tr.fired.items()}
    out = {}
    for metric, (unit, kind, key) in PER_LAYER.items():
        t = totals.get(key, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})
        if kind == "self":
            value = t["self_ns"] / 1e6
        elif kind == "total":
            value = t["total_ns"] / 1e6
        elif kind == "bwd_op":
            value = bwd_op.get(key, 0.0) / 1e6
        elif kind == "bwd_module":
            value = bwd_mod.get(key, 0.0) / 1e6
        elif kind == "calls":
            value = t["calls"]
        elif kind == "fired":
            value = fired[key]
        elif kind == "count":
            value = tr.counts.get(key, 0) / (1e6 if unit == "MFLOP" else 1)
        elif kind == "ratio":
            calls = fired[f"bevfuse.{key}:rotated_iou_bev"]
            out[metric] = {"value": tr.counts.get(f"{key}.iou_overlap", 0) / calls
                           if calls else 0.0, "unit": unit}
            continue
        else:
            out[metric] = {"value": overhead_pct, "unit": unit}
            continue
        out[metric] = {"value": value / units, "unit": unit}
    return out
