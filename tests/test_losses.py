import math

import numpy as np
import pytest

from bevfuse.detect import Anchor, DetectionBox, box_rows, make_anchors
from bevfuse.geometry import BevGrid
from bevfuse.losses import (IGNORE, NEGATIVE, AssignmentConfig,
                            assign_anchors, classification_loss,
                            hard_negative_mining, regression_loss, smooth_l1,
                            total_loss)
from bevfuse.tensor import Tensor


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
    labels = assign_anchors(anchors, gt, cfg)
    centers = anchors[:, :2]
    dist = np.hypot(centers[:, 0] - 6.0, centers[:, 1] + 2.0)
    np.testing.assert_array_equal(labels[dist <= 1.0], 0)
    np.testing.assert_array_equal(labels[(dist > 1.0) & (dist <= 5.0)], IGNORE)
    np.testing.assert_array_equal(labels[dist > 5.0], NEGATIVE)


def test_assign_anchors_nearest_gt_wins():
    anchors = box_rows([Anchor(0.0, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0)])
    gts = [DetectionBox(3.0, 0.0, 0.8, 4, 2, 1.6, 0.0),
           DetectionBox(1.0, 0.0, 0.8, 4, 2, 1.6, 0.0)]
    labels = assign_anchors(anchors, gts, AssignmentConfig(4.0, 4.0))
    assert labels[0] == 1


def test_hard_negative_mining_deterministic_and_topk():
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    neg = np.arange(100)
    scores = np.linspace(0.0, 1.0, 100)
    a = hard_negative_mining(neg, scores, k=3, fraction=0.5, rng=rng_a)
    b = hard_negative_mining(neg, scores, k=3, fraction=0.5, rng=rng_b)
    np.testing.assert_array_equal(a, b)
    assert a.size == 3
    # kept negatives are the highest-scoring within the sampled half
    assert set(a) <= set(neg[scores >= np.sort(scores)[49]])
    sampled_scores = scores[a]
    assert (np.diff(sampled_scores) <= 0).all()


def test_hard_negative_mining_empty():
    out = hard_negative_mining(np.array([], dtype=np.intp), np.zeros(0), 5, 0.05,
                               np.random.default_rng(0))
    assert out.size == 0


def test_classification_loss_oracle():
    scores = Tensor(np.array([0.9, 0.2]))
    labels = np.array([1.0, 0.0])
    expected = -(math.log(0.9) + math.log(0.8)) / 2
    assert classification_loss(scores, labels).data == pytest.approx(expected, abs=1e-12)


def test_classification_loss_clamps_extremes():
    scores = Tensor(np.array([0.0, 1.0]))
    labels = np.array([1.0, 0.0])
    val = float(classification_loss(scores, labels).data)
    assert np.isfinite(val) and val > 10.0


def test_smooth_l1_values():
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(-0.5) == pytest.approx(0.125)
    assert smooth_l1(2.0) == pytest.approx(1.5)
    assert smooth_l1(-3.0) == pytest.approx(2.5)


def test_regression_loss_oracle():
    pred = Tensor(np.array([[0.5, 2.0], [0.0, -3.0]]))
    target = np.zeros((2, 2))
    # (0.125 + 1.5 + 0 + 2.5) / 2 positives
    assert regression_loss(pred, target).data == pytest.approx(4.125 / 2, abs=1e-12)


def test_regression_loss_empty_positives():
    assert regression_loss(Tensor(np.zeros((0, 5))), np.zeros((0, 5))).data == 0.0


def test_total_loss_breakdown_and_alpha():
    scores = Tensor(np.array([0.9, 0.1]))
    labels = np.array([1.0, 0.0])
    pred = Tensor(np.array([[2.0]]))
    target = np.array([[0.0]])
    bd = total_loss(scores, labels, pred, target, alpha=2.0)
    assert bd.total.data == pytest.approx(bd.l_cls + 2.0 * bd.l_reg, abs=1e-12)
    assert bd.n == 2 and bd.n_pos == 1


def test_total_loss_backward_flows():
    s = Tensor(np.array([0.3, 0.6]), requires_grad=True)
    p = Tensor(np.array([[0.4]]), requires_grad=True)
    bd = total_loss(s, np.array([1.0, 0.0]), p, np.array([[0.0]]), alpha=1.0)
    bd.total.backward()
    assert s.grad is not None and p.grad is not None
    assert abs(p.grad[0, 0] - 0.4) < 1e-12   # smooth-L1 derivative inside |x|<1
