import math

import numpy as np
import pytest

from bevfuse.detect import Anchor, DetectionBox, box_rows, make_anchors
from bevfuse.geometry import BevGrid
from bevfuse.losses import (IGNORE, NEGATIVE, AssignmentConfig, assign_anchors,
                            hard_negative_mining, total_loss)
from bevfuse.tensor import Tensor, bce_with_logits


def smooth_l1(x: float) -> float:
    """Scalar reference of the regression penalty."""
    return 0.5 * x * x if abs(x) < 1.0 else abs(x) - 0.5


def _anchors():
    grid = BevGrid((0.0, 16.0), (-8.0, 8.0), (0.0, 2.0), 4, 4, 1)
    return make_anchors(grid, (4.0, 2.0, 1.6), z=0.8)


def test_assignment_config_validation():
    with pytest.raises(ValueError):
        AssignmentConfig(positive_radius=5.0, negative_radius=2.0)
    with pytest.raises(ValueError):
        AssignmentConfig(1.0, 2.0, neg_sample_fraction=0.0)


def test_assignment_config_from_anchor():
    cfg = AssignmentConfig.from_anchor((4.0, 2.0, 1.6))
    diag = math.hypot(4.0, 2.0)
    assert cfg.positive_radius == pytest.approx(diag / 2)
    assert cfg.negative_radius == pytest.approx(diag)


def test_topk_rule():
    cfg = AssignmentConfig(1.0, 2.0)
    assert cfg.topk(0) == 16
    assert cfg.topk(5) == 16
    assert cfg.topk(6) == 18


def test_assign_anchors_three_zones():
    anchors = _anchors()
    gt = [DetectionBox(6.0, -2.0, 0.8, 4.0, 2.0, 1.6, 0.0)]
    cfg = AssignmentConfig(positive_radius=1.0, negative_radius=5.0)
    labels = assign_anchors(anchors, gt, cfg, [False])
    centers = anchors[:, :2]
    dist = np.hypot(centers[:, 0] - 6.0, centers[:, 1] + 2.0)
    np.testing.assert_array_equal(labels[dist <= 1.0], 0)
    np.testing.assert_array_equal(labels[(dist > 1.0) & (dist <= 5.0)], IGNORE)
    np.testing.assert_array_equal(labels[dist > 5.0], NEGATIVE)


def test_assign_anchors_nearest_gt_wins():
    anchors = box_rows([Anchor(0.0, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0)])
    gts = [DetectionBox(3.0, 0.0, 0.8, 4, 2, 1.6, 0.0),
           DetectionBox(1.0, 0.0, 0.8, 4, 2, 1.6, 0.0)]
    labels = assign_anchors(anchors, gts, AssignmentConfig(4.0, 4.0), [False, False])
    assert labels[0] == 1


def _assign_loop(anchors, gts, ignored, cfg):
    """Per-anchor transcription of the labelling rule: the nearest gt that is
    not ignored (the first on ties) when it lies within positive_radius,
    else IGNORE when any gt lies within negative_radius, else NEGATIVE."""
    labels = []
    for ax, ay in anchors[:, :2]:
        d = [float(np.hypot(ax - g.x, ay - g.y)) for g in gts]
        best, idx = min(((d[i], i) for i in range(len(gts)) if not ignored[i]),
                        default=(math.inf, -1))
        if best <= cfg.positive_radius:
            labels.append(idx)
        elif any(di <= cfg.negative_radius for di in d):
            labels.append(IGNORE)
        else:
            labels.append(NEGATIVE)
    return np.array(labels)


def test_assign_anchors_matches_per_anchor_loop():
    anchors = _anchors()
    rng = np.random.default_rng(8)
    for _ in range(80):
        n = int(rng.integers(1, 6))
        # gts on a 2 m lattice: equal distances to several gts are common
        xy = rng.integers(0, 9, (n, 2)) * 2.0 - [0.0, 8.0]
        gts = [DetectionBox(x, y, 0.8, 4.0, 2.0, 1.6, 0.0) for x, y in xy]
        ignored = rng.random(n) < 0.4
        pos = float(rng.choice([1.0, 2.0, math.sqrt(8.0), 3.0]))
        cfg = AssignmentConfig(pos, pos + float(rng.choice([0.0, 1.0, 4.0])))
        labels = assign_anchors(anchors, gts, cfg, ignored)
        np.testing.assert_array_equal(labels, _assign_loop(anchors, gts, ignored, cfg))


def test_ignored_gt_is_never_a_positive():
    anchors = box_rows([Anchor(0.0, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0)])
    # a DontCare-style gt: KITTI gives it -1 sizes, which no target may encode
    dontcare = DetectionBox(0.5, 0.0, 0.0, -1.0, -1.0, -1.0, 0.0, ignored=True)
    kept = DetectionBox(1.5, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0)
    cfg = AssignmentConfig(2.0, 4.0)
    # the nearer gt is ignored: the anchor is positive for the farther one
    assert assign_anchors(anchors, [dontcare, kept], cfg, [True, False])[0] == 1
    for x, label in ((0.5, IGNORE), (3.0, IGNORE), (5.0, NEGATIVE)):
        moved = DetectionBox(x, 0.0, 0.0, -1.0, -1.0, -1.0, 0.0, ignored=True)
        assert assign_anchors(anchors, [moved], cfg, [True])[0] == label


def test_hard_negative_mining_deterministic_and_topk():
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    neg = np.arange(100)
    scores = np.linspace(0.0, 1.0, 100)
    cfg = AssignmentConfig(1.0, 2.0, neg_sample_fraction=0.5, topk_neg_ratio=1.0,
                           topk_neg_floor=2)
    a = hard_negative_mining(neg, scores, 3, cfg, rng=rng_a)     # k = max(1 * 3, 2)
    b = hard_negative_mining(neg, scores, 3, cfg, rng=rng_b)
    np.testing.assert_array_equal(a, b)
    assert a.size == 3
    # kept negatives are the highest-scoring within the sampled half
    assert set(a) <= set(neg[scores >= np.sort(scores)[49]])
    sampled_scores = scores[a]
    assert (np.diff(sampled_scores) <= 0).all()


def test_hard_negative_mining_ties_keep_sample_order_and_nan_last():
    neg = np.arange(40)
    scores = np.where(neg % 2 == 0, 0.5, np.nan)
    cfg = AssignmentConfig(1.0, 2.0, neg_sample_fraction=1.0, topk_neg_ratio=0.0,
                           topk_neg_floor=30)
    sampled = np.random.default_rng(4).choice(neg, size=neg.size, replace=False)
    kept = hard_negative_mining(neg, scores, 0, cfg, np.random.default_rng(4))
    even, odd = sampled[sampled % 2 == 0], sampled[sampled % 2 == 1]
    np.testing.assert_array_equal(kept, np.concatenate([even, odd])[:30])


def test_hard_negative_mining_empty():
    out = hard_negative_mining(np.array([], dtype=np.intp), np.zeros(0), 5,
                               AssignmentConfig(1.0, 2.0), np.random.default_rng(0))
    assert out.size == 0


def test_classification_loss_oracle():
    logits = Tensor(np.array([math.log(9.0), math.log(0.25)]))   # scores 0.9, 0.2
    labels = np.array([1.0, 0.0])
    expected = -(math.log(0.9) + math.log(0.8)) / 2
    assert bce_with_logits(logits, labels).data == pytest.approx(expected, abs=1e-12)


def test_classification_loss_saturated_logits():
    # a clamped probability once gave logits 17 and 40 the same loss and a
    # zero gradient; on logits the loss keeps growing and the gradient is ~1
    losses, grads = [], []
    for x in (17.0, 40.0):
        logit = Tensor(np.array([x]), requires_grad=True)
        loss = bce_with_logits(logit, np.array([0.0]))
        loss.backward()
        losses.append(loss.item())
        grads.append(logit.grad[0])
    assert losses[0] != losses[1]
    assert losses == pytest.approx([17.0, 40.0])
    np.testing.assert_allclose(grads, 1.0, atol=1e-7)
    with np.errstate(all="raise"):
        logits = Tensor(np.array([-800.0, -800.0, 800.0]), requires_grad=True)
        loss = bce_with_logits(logits, np.array([0.0, 1.0, 1.0]))
        loss.backward()
    assert loss.item() == pytest.approx(800.0 / 3)
    np.testing.assert_allclose(logits.grad, [0.0, -1 / 3, 0.0], atol=1e-15)


def test_smooth_l1_values():
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(-0.5) == pytest.approx(0.125)
    assert smooth_l1(2.0) == pytest.approx(1.5)
    assert smooth_l1(-3.0) == pytest.approx(2.5)


def test_regression_loss_oracle():
    pred = Tensor(np.array([[0.5, 2.0], [0.0, -3.0]]))
    target = np.zeros((2, 2))
    # (0.125 + 1.5 + 0 + 2.5) / 2 positives
    bd = total_loss(Tensor(np.zeros(2)), np.zeros(2), pred, target)
    assert bd.l_reg == pytest.approx(4.125 / 2, abs=1e-12)


def test_regression_loss_empty_positives():
    logits = Tensor(np.array([0.3, -0.6]), requires_grad=True)
    bd = total_loss(logits, np.zeros(2), Tensor(np.zeros((0, 5))), np.zeros((0, 5)))
    assert bd.l_reg == 0.0
    bd.total.backward()
    assert logits.grad is not None and np.all(logits.grad > 0)


def test_total_loss_breakdown_and_alpha():
    logits = Tensor(np.array([2.0, -2.0]))
    labels = np.array([1.0, 0.0])
    pred = Tensor(np.array([[2.0]]))
    target = np.array([[0.0]])
    bd = total_loss(logits, labels, pred, target, alpha=2.0)
    assert bd.total.data == pytest.approx(bd.l_cls + 2.0 * bd.l_reg, abs=1e-12)
    assert bd.n == 2 and bd.n_pos == 1


def test_total_loss_backward_flows():
    s = Tensor(np.array([0.3, 0.6]), requires_grad=True)
    p = Tensor(np.array([[0.4]]), requires_grad=True)
    bd = total_loss(s, np.array([1.0, 0.0]), p, np.array([[0.0]]), alpha=1.0)
    bd.total.backward()
    assert s.grad is not None and p.grad is not None
    assert abs(p.grad[0, 0] - 0.4) < 1e-12   # smooth-L1 derivative inside |x|<1
