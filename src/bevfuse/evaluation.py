"""Detection evaluation: greedy matching, 11/100-point interpolated AP and
range-binned piecewise AP."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detect import DetectionBox, iou_3d, may_overlap, rotated_iou_bev


@dataclass
class EvalConfig:
    iou_kind: str = "bev"                    # "bev" (rotated 2D) or "3d"
    iou_threshold: float = 0.5
    ap_points: int = 11                      # 11 or 100 recall samples
    range_bins: list[tuple[float, float]] | None = None
    ignore_classes: tuple[int, ...] = ()
    score_threshold: float = 0.1
    nms_iou: float = 0.1
    nms_max_out: int = 50

    def __post_init__(self):
        if self.iou_kind not in ("bev", "3d"):
            raise ValueError(f"unknown iou_kind {self.iou_kind!r}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        if self.ap_points < 1:
            raise ValueError("ap_points must be >= 1")
        if not 0.0 < self.nms_iou <= 1.0:
            raise ValueError("nms_iou must be in (0, 1]")
        if self.nms_max_out < 1:
            raise ValueError("nms_max_out must be >= 1")

    def iou(self, a: DetectionBox, b: DetectionBox) -> float:
        return iou_3d(a, b) if self.iou_kind == "3d" else rotated_iou_bev(a, b)


@dataclass
class PrCurve:
    recalls: np.ndarray
    precisions: np.ndarray
    interpolated: np.ndarray
    ap: float


# match flags
TP, FP, SKIP = 1, 0, -1


def rank_detections(dets: list[DetectionBox]) -> list[int]:
    """Indices sorted by descending score; equal scores keep index order."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))


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
    ignore = [g.ignored or g.cls in cfg.ignore_classes for g in gts]
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
                 cfg: EvalConfig):
    """Match per frame, then pool flags globally by descending score."""
    scored: list[tuple[float, int, int, int]] = []     # (-score, frame, idx, flag)
    num_gt = 0
    for fi, (dets, gts) in enumerate(frames):
        order = rank_detections(dets)
        ranked = [dets[i] for i in order]
        flags = match_detections(ranked, gts, cfg)
        ignore = [g.ignored or g.cls in cfg.ignore_classes for g in gts]
        num_gt += sum(1 for ig in ignore if not ig)
        for pos, (det, flag) in enumerate(zip(ranked, flags)):
            scored.append((-det.score, fi, pos, int(flag)))
    scored.sort()
    return np.array([s[3] for s in scored], dtype=np.int64), num_gt


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
