import numpy as np
import pytest

from bevfuse.detect import DetectionBox
from bevfuse.evaluation import (FP, SKIP, TP, EvalConfig, average_precision,
                                evaluate_frames, evaluate_pr, match_detections,
                                piecewise_range_ap, pr_curve, rank_detections)


def _box(x, y, score=1.0, w=4.0, h=2.0, t=0.0, ignored=False, cls=0):
    return DetectionBox(x, y, 0.8, w, h, 1.6, t, score=score, ignored=ignored,
                        cls=cls)


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(iou_kind="volume")
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=1.5)


def test_rank_detections_stable():
    dets = [_box(0, 0, 0.5), _box(1, 0, 0.9), _box(2, 0, 0.5)]
    assert rank_detections(dets) == [1, 0, 2]


def test_match_basic_tp_fp():
    gts = [_box(0, 0), _box(10, 0)]
    dets = [_box(0.1, 0, 0.9), _box(20, 0, 0.8)]
    flags = match_detections(dets, gts, EvalConfig())
    np.testing.assert_array_equal(flags, [TP, FP])


def test_match_each_gt_used_once():
    gts = [_box(0, 0)]
    dets = [_box(0.1, 0, 0.9), _box(0.2, 0, 0.8)]
    flags = match_detections(dets, gts, EvalConfig())
    np.testing.assert_array_equal(flags, [TP, FP])


def test_ignored_gt_absorbs_unlimited_matches():
    gts = [_box(0, 0, ignored=True)]
    dets = [_box(0.1, 0, 0.9), _box(0.2, 0, 0.8)]
    flags = match_detections(dets, gts, EvalConfig())
    np.testing.assert_array_equal(flags, [SKIP, SKIP])


def test_ignored_class_config():
    gts = [_box(0, 0, cls=3)]
    dets = [_box(0.1, 0, 0.9)]
    flags = match_detections(dets, gts, EvalConfig(ignore_classes=(3,)))
    np.testing.assert_array_equal(flags, [SKIP])


def test_real_gt_preferred_over_ignored():
    gts = [_box(0, 0, ignored=True), _box(0.3, 0)]
    dets = [_box(0.2, 0, 0.9)]
    flags = match_detections(dets, gts, EvalConfig(iou_threshold=0.3))
    np.testing.assert_array_equal(flags, [TP])


def test_ap_hand_computed_staircase():
    """Fixed 5-detection / 3-gt scenario, 11-point interpolated AP by hand.

    Ranked flags: TP FP TP FP TP with 3 gts.
      after det1: r=1/3 p=1/1
      after det3: r=2/3 p=2/3
      after det5: r=3/3 p=3/5
    Interp precision: r in {0,.1,.2,.3} -> 1.0; {.4,.5,.6} -> 2/3;
    {.7,.8,.9,1.0} -> 3/5. AP = (4*1 + 3*2/3 + 4*3/5)/11 = 8.4/11.
    """
    flags = np.array([TP, FP, TP, FP, TP])
    ap = average_precision(flags, num_gt=3, ap_points=11)
    assert ap == pytest.approx((4 * 1.0 + 3 * (2 / 3) + 4 * 0.6) / 11, abs=1e-12)


def test_ap_perfect_detector_is_one():
    flags = np.array([TP, TP, TP])
    assert average_precision(flags, 3) == pytest.approx(1.0)


def test_ap_no_detections_is_zero():
    assert average_precision(np.zeros(0, dtype=np.int64), 3) == 0.0


def test_ap_none_when_no_gt():
    assert average_precision(np.array([FP, FP]), 0) is None


def test_skip_flags_excluded_from_curve():
    with_skips = np.array([TP, SKIP, TP, SKIP])
    without = np.array([TP, TP])
    assert average_precision(with_skips, 2) == average_precision(without, 2)


def test_pr_curve_recall_mask_tolerance():
    # recall hits exactly 0.5: the 0.5 level must include that point
    curve = pr_curve(np.array([TP, FP]), num_gt=2, ap_points=11)
    assert curve.interpolated[5] == pytest.approx(1.0)


def test_evaluate_frames_pools_by_score():
    frames = [
        ([_box(0.1, 0, 0.9)], [_box(0, 0)]),
        ([_box(50, 0, 0.95)], [_box(10, 0)]),   # high-score FP in another frame
    ]
    ap = evaluate_frames(frames, EvalConfig())
    # ranked: FP(0.95), TP(0.9) with 2 gt -> precision 1/2 at recall 1/2
    assert ap == pytest.approx(6 * 0.5 / 11, abs=1e-12)


def test_evaluate_pr_returns_curve():
    frames = [([_box(0.1, 0, 0.9)], [_box(0, 0)])]
    curve = evaluate_pr(frames, EvalConfig())
    assert curve.ap == pytest.approx(1.0)


def test_11_vs_100_point_close_on_dense_sets():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = 400
        flags = (rng.random(n) < 0.6).astype(np.int64)
        num_gt = int(flags.sum() + rng.integers(0, 20))
        a11 = average_precision(flags, num_gt, 11)
        a100 = average_precision(flags, num_gt, 100)
        assert abs(a11 - a100) < 0.05


def test_piecewise_range_ap_buckets():
    cfg = EvalConfig(range_bins=[(0.0, 10.0), (10.0, 20.0)])
    gts = [_box(5, 0), _box(15, 0)]
    dets = [_box(5.1, 0, 0.9), _box(19.0, 0, 0.8)]
    out = piecewise_range_ap([(dets, gts)], cfg)
    assert out[0][0] == (0.0, 10.0)
    assert out[0][1] == pytest.approx(1.0)      # near bin: perfect
    assert out[1][1] == 0.0                     # far bin: det misses its gt


def test_piecewise_range_requires_bins():
    with pytest.raises(ValueError):
        piecewise_range_ap([([], [])], EvalConfig())
