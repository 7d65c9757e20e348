"""Detection evaluation: greedy matching, 11/100-point interpolated AP,
range-binned piecewise AP, and the report that holds them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Literal

import numpy as np

from .detect import (DetectionBox, iou_3d, may_overlap, rank_detections, rotated_iou_bev,
                     score_order)
from .domains import Checked, Increasing, NonEmpty, NonNeg, Pos, Unit, UnitOpen


@dataclass
class EvalConfig(Checked):
    iou_kind: Literal["bev", "3d"] = "bev"      # rotated 2D or 3D
    iou_threshold: Annotated[float, Pos, UnitOpen] = 0.5
    ap_points: Annotated[int, Pos] = 11         # 11 or 100 recall samples
    # bins [lo, hi) of the box center's x, meters
    range_bins: Annotated[list[Annotated[tuple[float, float], Increasing]],
                          NonEmpty] | None = None
    ignore_classes: Annotated[tuple[int, ...], NonNeg] = ()
    score_threshold: Annotated[float, Unit] = 0.1
    nms_iou: Annotated[float, Pos, Unit] = 0.1
    nms_max_out: Annotated[int, Pos] = 50

    def iou(self, a: DetectionBox, b: DetectionBox) -> float:
        return iou_3d(a, b) if self.iou_kind == "3d" else rotated_iou_bev(a, b)

    def ignores(self, gt: DetectionBox) -> bool:
        """A 'DontCare'-style gt: flagged ignored, or of an ignored class."""
        return gt.ignored or gt.cls in self.ignore_classes


@dataclass
class PrCurve:
    recalls: np.ndarray
    precisions: np.ndarray
    interpolated: np.ndarray
    ap: float


# match flags
TP, FP, SKIP = 1, 0, -1


def match_detections(dets: list[DetectionBox], gts: list[DetectionBox],
                     cfg: EvalConfig) -> np.ndarray:
    """Greedy TP/FP flags for score-descending detections.

    Each detection takes the unmatched gt of highest IoU >= threshold; every
    gt matches at most once. Detections whose best remaining match is an
    ignored gt count as neither TP nor FP. Only gts inside ``may_overlap``
    are compared: any other pair has IoU 0.0, below every threshold.
    """
    flags = np.full(len(dets), FP, dtype=np.int64)
    gt_taken = [False] * len(gts)
    ignore = [cfg.ignores(g) for g in gts]
    near = may_overlap(dets, gts)
    for di in range(len(dets)):
        best_iou, best_gt = 0.0, -1
        hits_ignore = False
        for gi in np.flatnonzero(near[di]).tolist():
            iou = cfg.iou(dets[di], gts[gi])
            if iou < cfg.iou_threshold:
                continue
            if ignore[gi]:
                hits_ignore = True       # never consumed; absorbs any overlap
            elif not gt_taken[gi] and iou > best_iou:
                best_iou, best_gt = iou, gi
        if best_gt >= 0:
            flags[di] = TP
            gt_taken[best_gt] = True
        elif hits_ignore:
            flags[di] = SKIP
    return flags


def pr_curve(flags: np.ndarray, num_gt: int, ap_points: int = 11) -> PrCurve | None:
    """Interpolated PR staircase from ranked TP/FP flags; None when no gt."""
    if num_gt <= 0:
        return None
    flags = np.asarray(flags)
    flags = flags[flags != SKIP]
    tp = np.cumsum(flags == TP)
    fp = np.cumsum(flags == FP)
    recalls = tp / num_gt
    precisions = tp / np.maximum(tp + fp, 1)
    levels = np.linspace(0.0, 1.0, ap_points)
    interp = np.zeros(ap_points)
    for i, r in enumerate(levels):
        mask = recalls >= r - 1e-12
        interp[i] = precisions[mask].max() if mask.any() else 0.0
    return PrCurve(recalls, precisions, interp, float(interp.mean()))


def average_precision(flags: np.ndarray, num_gt: int,
                      ap_points: int = 11) -> float | None:
    """Precision interpolated at ``ap_points`` equally spaced recall levels
    (including recall 0), averaged. Undefined (None) when num_gt is 0."""
    curve = pr_curve(flags, num_gt, ap_points)
    return curve.ap if curve is not None else None


def _pool_frames(frames: list[tuple[list[DetectionBox], list[DetectionBox]]],
                 cfg: EvalConfig) -> tuple[np.ndarray, int]:
    """Match per frame, then pool all flags by ``score_order`` (equal scores
    keep frame, then rank, order); and count the gts not ignored."""
    scores, flags, num_gt = [], [np.empty(0, dtype=np.int64)], 0
    for dets, gts in frames:
        ranked = [dets[i] for i in rank_detections(dets)]
        scores += [d.score for d in ranked]
        flags.append(match_detections(ranked, gts, cfg))
        num_gt += sum(1 for g in gts if not cfg.ignores(g))
    return np.concatenate(flags)[score_order(scores)], num_gt


def evaluate_pr(frames: list[tuple[list[DetectionBox], list[DetectionBox]]],
                cfg: EvalConfig) -> PrCurve | None:
    """PR curve and AP over (detections, ground truths) frames; None when
    they hold no ground truth."""
    flags, num_gt = _pool_frames(frames, cfg)
    return pr_curve(flags, num_gt, cfg.ap_points)


def piecewise_range_ap(frames: list[tuple[list[DetectionBox], list[DetectionBox]]],
                       cfg: EvalConfig) -> list[tuple[tuple[float, float], float | None]]:
    """AP per forward-range bin over (detections, ground truths) frames.

    Boxes bucket by center x within their own frame, so matches never cross
    a bin or a frame."""
    if not cfg.range_bins:
        raise ValueError("range_bins not configured")
    out = []
    for lo, hi in cfg.range_bins:
        binned = [([d for d in dets if lo <= d.x < hi], [g for g in gts if lo <= g.x < hi])
                  for dets, gts in frames]
        curve = evaluate_pr(binned, cfg)
        out.append(((lo, hi), curve.ap if curve is not None else None))
    return out


def summarize(frames: list[tuple[list[DetectionBox], list[DetectionBox]]],
              cfg: EvalConfig) -> dict:
    """The report of (detections, ground truths) frames from one pooling pass:
    ``num_gt`` counts the gts not ignored, the AP's denominator (None AP at 0)."""
    flags, num_gt = _pool_frames(frames, cfg)
    curve = pr_curve(flags, num_gt, cfg.ap_points)
    out = {"iou_kind": cfg.iou_kind, "iou_threshold": cfg.iou_threshold,
           "ap_points": cfg.ap_points, "num_frames": len(frames), "num_gt": num_gt,
           "num_detections": sum(len(d) for d, _ in frames),
           "ap": curve.ap if curve is not None else None}
    if curve is not None:
        out["pr_curve"] = {"recall": [round(float(r), 6) for r in curve.recalls],
                           "precision": [round(float(p), 6) for p in curve.precisions]}
    if cfg.range_bins:
        out["range_ap"] = [{"bin": list(b), "ap": ap}
                           for b, ap in piecewise_range_ap(frames, cfg)]
    return out
