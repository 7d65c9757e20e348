"""Multi-task detection loss: binary cross-entropy classification, smooth-L1
regression over encoded offsets, center-distance anchor assignment and hard
negative mining."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .detect import DetectionBox, box_rows, score_order
from .domains import Checked, Finite, NonNeg, Pos, Unit, Within
from .tensor import Tensor, bce_with_logits, smooth_l1_sum

NEGATIVE = -1
IGNORE = -2


@dataclass
class AssignmentConfig(Checked):
    positive_radius: Annotated[float, Finite, Pos]
    negative_radius: Annotated[float, Finite, Pos]
    neg_sample_fraction: Annotated[float, Pos, Unit] = 0.05
    # k = max(ratio * N_pos, floor); the bound keeps the product finite
    topk_neg_ratio: Annotated[float, Within(0, 1e4)] = 3.0
    topk_neg_floor: Annotated[int, NonNeg] = 16

    def __post_init__(self):
        super().__post_init__()
        if self.positive_radius > self.negative_radius:
            raise ValueError("positive_radius must be <= negative_radius")

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
                   cfg: AssignmentConfig, ignored) -> np.ndarray:
    """Per-anchor-row label: matched gt index, NEGATIVE (-1) or IGNORE (-2).

    ``ignored`` flags each gt that evaluation ignores (``EvalConfig.ignores``).
    An anchor is positive iff its BEV center lies within positive_radius of
    a gt that is not ignored (the nearest such gt wins). Otherwise it is
    ignored when some gt, ignored or not, lies within negative_radius, and
    negative when none does.
    """
    labels = np.full(len(anchors), NEGATIVE, dtype=np.int64)
    if not gt_boxes or not len(anchors):
        return labels
    ac, gc = anchors[:, :2], box_rows(gt_boxes)[:, :2]
    d = np.hypot(ac[:, 0, None] - gc[None, :, 0], ac[:, 1, None] - gc[None, :, 1])
    labels[d.min(axis=1) <= cfg.negative_radius] = IGNORE
    d[:, np.asarray(ignored, dtype=bool)] = np.inf
    nearest = d.argmin(axis=1)
    positive = d[np.arange(len(anchors)), nearest] <= cfg.positive_radius
    labels[positive] = nearest[positive]
    return labels


def hard_negative_mining(neg_indices: np.ndarray, cls_scores: np.ndarray, n_pos: int,
                         cfg: AssignmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Sample ceil(cfg.neg_sample_fraction * |neg|) negatives, keep the
    top ``cfg.topk(n_pos)`` by score.

    Ranked by ``score_order``: equal scores keep the seeded sample order, so
    the selection is deterministic given the generator state.
    """
    neg_indices = np.asarray(neg_indices, dtype=np.intp)
    n_sample = min(math.ceil(cfg.neg_sample_fraction * neg_indices.size), neg_indices.size)
    sampled = rng.choice(neg_indices, size=n_sample, replace=False)
    return sampled[score_order(cls_scores[sampled])[:cfg.topk(n_pos)]]


def total_loss(cls_logits: Tensor, cls_labels: np.ndarray,
               reg_pred: Tensor, reg_target: np.ndarray,
               alpha: float = 1.0) -> LossBreakdown:
    """L = L_cls + alpha * L_reg over an already-selected sample set: the
    mean binary cross entropy of the logits, plus alpha times the smooth-L1
    sum of the positives' offsets over N_pos. An empty selection gives 0 on
    the tape, so every parameter behind it still gets a (zero) gradient."""
    l_cls = bce_with_logits(cls_logits, cls_labels)
    l_reg = smooth_l1_sum(reg_pred, reg_target) / float(max(reg_pred.shape[0], 1))
    return LossBreakdown(total=l_cls + l_reg * alpha, l_cls=float(l_cls.data),
                         l_reg=float(l_reg.data), n=cls_logits.shape[0],
                         n_pos=reg_pred.shape[0])
