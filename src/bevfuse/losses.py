"""Multi-task detection loss: binary cross-entropy classification, smooth-L1
regression over encoded offsets, center-distance anchor assignment and hard
negative mining."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detect import DetectionBox, box_rows
from .tensor import Tensor

NEGATIVE = -1
IGNORE = -2

SCORE_CLAMP_EPS = 1e-7


@dataclass
class AssignmentConfig:
    positive_radius: float
    negative_radius: float
    neg_sample_fraction: float = 0.05
    topk_neg_ratio: float = 3.0     # k = max(ratio * N_pos, floor)
    topk_neg_floor: int = 16

    def __post_init__(self):
        if self.positive_radius > self.negative_radius:
            raise ValueError("positive_radius must be <= negative_radius")
        if not 0.0 < self.neg_sample_fraction <= 1.0:
            raise ValueError("neg_sample_fraction must be in (0, 1]")

    @staticmethod
    def from_anchor(anchor_size: tuple[float, float, float]) -> "AssignmentConfig":
        """Default radii: half / full BEV diagonal of the anchor footprint."""
        diag = math.hypot(anchor_size[0], anchor_size[1])
        return AssignmentConfig(positive_radius=diag / 2, negative_radius=diag)

    def topk(self, n_pos: int) -> int:
        return max(int(self.topk_neg_ratio * n_pos), self.topk_neg_floor)


@dataclass
class LossBreakdown:
    """One training step's loss terms. ``total`` stays on the tape."""

    total: Tensor
    l_cls: float
    l_reg: float
    n: int
    n_pos: int


def assign_anchors(anchors: np.ndarray, gt_boxes: list[DetectionBox],
                   cfg: AssignmentConfig) -> np.ndarray:
    """Per-anchor-row label: matched gt index, NEGATIVE (-1) or IGNORE (-2).

    An anchor is positive iff its BEV center lies within positive_radius of
    some gt center (nearest gt wins); negative iff farther than
    negative_radius from every gt; ignored in between.
    """
    labels = np.full(len(anchors), NEGATIVE, dtype=np.int64)
    if not gt_boxes or not len(anchors):
        return labels
    ac, gc = anchors[:, :2], box_rows(gt_boxes)[:, :2]
    d = np.hypot(ac[:, 0, None] - gc[None, :, 0], ac[:, 1, None] - gc[None, :, 1])
    nearest = d.argmin(axis=1)
    dmin = d[np.arange(len(anchors)), nearest]
    labels[dmin <= cfg.positive_radius] = nearest[dmin <= cfg.positive_radius]
    labels[(dmin > cfg.positive_radius) & (dmin <= cfg.negative_radius)] = IGNORE
    return labels


def hard_negative_mining(neg_indices: np.ndarray, cls_scores: np.ndarray,
                         k: int, fraction: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Sample ceil(fraction * |neg|) negatives, keep the top-k by score.

    Equal scores keep the seeded sample order (stable sort), so the selection
    is deterministic given the generator state.
    """
    neg_indices = np.asarray(neg_indices, dtype=np.intp)
    if neg_indices.size == 0:
        return neg_indices
    n_sample = min(int(math.ceil(fraction * neg_indices.size)), neg_indices.size)
    sampled = rng.choice(neg_indices, size=n_sample, replace=False)
    order = np.argsort(-cls_scores[sampled], kind="stable")
    return sampled[order[:k]]


def classification_loss(scores: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross entropy over the selected samples.

    ``scores`` are post-sigmoid confidences; they are clamped away from 0/1
    for log stability. Empty selection gives 0.
    """
    if scores.size == 0:
        return Tensor(0.0)
    p = scores.clamp(SCORE_CLAMP_EPS, 1.0 - SCORE_CLAMP_EPS)
    l = Tensor(np.asarray(labels, dtype=np.float64))
    # note: the cross entropy is the standard non-negative form
    per = -(l * p.log() + (1.0 - l) * (1.0 - p).log())
    return per.mean()


def regression_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """(1/N_pos) * sum of smooth-L1 terms over all positives and channels."""
    if pred.size == 0:
        return Tensor(0.0)
    n_pos = pred.shape[0]
    x = pred - Tensor(np.asarray(target, dtype=np.float64))
    ax = x.abs()
    near = (np.abs(x.data) < 1.0).astype(np.float64)
    d = Tensor(near) * (x * x * 0.5) + Tensor(1.0 - near) * (ax - 0.5)
    return d.sum() / float(n_pos)


def smooth_l1(x: float) -> float:
    """Scalar reference of the regression penalty."""
    return 0.5 * x * x if abs(x) < 1.0 else abs(x) - 0.5


def total_loss(cls_scores: Tensor, cls_labels: np.ndarray,
               reg_pred: Tensor, reg_target: np.ndarray,
               alpha: float = 1.0) -> LossBreakdown:
    """L = L_cls + alpha * L_reg over an already-selected sample set."""
    l_cls = classification_loss(cls_scores, cls_labels)
    l_reg = regression_loss(reg_pred, reg_target)
    total = l_cls + l_reg * alpha
    n_pos = reg_pred.shape[0] if reg_pred.ndim >= 1 and reg_pred.size else 0
    n = cls_scores.shape[0] if cls_scores.ndim >= 1 and cls_scores.size else 0
    return LossBreakdown(total=total, l_cls=float(l_cls.data),
                         l_reg=float(l_reg.data), n=n, n_pos=n_pos)
