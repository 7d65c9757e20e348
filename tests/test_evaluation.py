import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevfuse.detect import DetectionBox
from bevfuse.evaluation import (FP, SKIP, TP, EvalConfig, average_precision,
                                evaluate_pr, match_detections,
                                piecewise_range_ap, pr_curve, rank_detections)


def _box(x, y, score=1.0, w=4.0, h=2.0, t=0.0, ignored=False, cls=0):
    return DetectionBox(x, y, 0.8, w, h, 1.6, t, score=score, ignored=ignored,
                        cls=cls)


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(iou_kind="volume")
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=1.5)


@pytest.mark.parametrize("field,value", [("nms_iou", 0.0), ("nms_iou", -0.1),
                                         ("nms_iou", 1.5), ("nms_max_out", 0),
                                         ("nms_max_out", -3)])
def test_eval_config_rejects_bad_nms_settings(field, value):
    with pytest.raises(ValueError):
        EvalConfig(**{field: value})
    EvalConfig(nms_iou=1.0, nms_max_out=1)


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
    ap = evaluate_pr(frames, EvalConfig()).ap
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


def _match_unmasked(dets, gts, cfg):
    """Every detection against every gt, no prefilter."""
    flags = np.full(len(dets), FP, dtype=np.int64)
    gt_taken = [False] * len(gts)
    ignore = [g.ignored or g.cls in cfg.ignore_classes for g in gts]
    for di in range(len(dets)):
        best_iou, best_gt = 0.0, -1
        hits_ignore = False
        for gi, gt in enumerate(gts):
            iou = cfg.iou(dets[di], gt)
            if iou < cfg.iou_threshold:
                continue
            if ignore[gi]:
                hits_ignore = True
            elif not gt_taken[gi] and iou > best_iou:
                best_iou, best_gt = iou, gi
        if best_gt >= 0:
            flags[di] = TP
            gt_taken[best_gt] = True
        elif hits_ignore:
            flags[di] = SKIP
    return flags


# lattice centres and sizes make duplicates, ties and touching edges likely
_BOXES = st.lists(st.builds(
    DetectionBox,
    x=st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0),
                st.just(math.nan)),
    y=st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0)),
    z=st.sampled_from([0.0, 0.8, 2.0]),
    w=st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.25, 5.0)),
    h=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.25, 3.0)),
    d=st.sampled_from([1.0, 1.6]),
    t=st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(-3.2, 3.2)),
    score=st.floats(0.0, 1.0), cls=st.integers(0, 1), ignored=st.booleans()),
    max_size=9)


@settings(max_examples=300, deadline=None)
@given(_BOXES, _BOXES, st.sampled_from(["bev", "3d"]),
       st.one_of(st.sampled_from([1e-12, 0.1, 0.5]), st.floats(0.01, 0.99)),
       st.sampled_from([(), (1,)]))
def test_match_detections_equals_unmasked_loop(dets, gts, kind, thr, ignore_classes):
    cfg = EvalConfig(iou_kind=kind, iou_threshold=thr, ignore_classes=ignore_classes)
    np.testing.assert_array_equal(match_detections(dets, gts, cfg),
                                  _match_unmasked(dets, gts, cfg))


def _range_ap_reference(frames, cfg):
    """Bin each frame by centre x, match it with the unmasked loop, then pool
    the flags by descending score (ties keep frame, then rank, order)."""
    out = []
    for lo, hi in cfg.range_bins:
        pooled, num_gt = [], 0
        for dets, gts in frames:
            dets = sorted((d for d in dets if lo <= d.x < hi), key=lambda d: -d.score)
            gts = [g for g in gts if lo <= g.x < hi]
            num_gt += sum(not (g.ignored or g.cls in cfg.ignore_classes) for g in gts)
            pooled += zip([d.score for d in dets], _match_unmasked(dets, gts, cfg))
        pooled.sort(key=lambda p: -p[0])
        flags = np.array([f for _, f in pooled], dtype=np.int64)
        out.append(((lo, hi), average_precision(flags, num_gt, cfg.ap_points)))
    return out


# detections: random boxes plus rescored copies of the frame's gts, so that
# true positives and exact matches at a bin edge are common
_FRAMES = st.lists(st.tuples(_BOXES, _BOXES, st.lists(st.floats(0.0, 1.0))).map(
    lambda f: (f[0] + [replace(g, score=s) for g, s in zip(f[1], f[2])], f[1])),
    max_size=4)


@settings(max_examples=200, deadline=None)
@given(_FRAMES,
       st.lists(st.integers(-5, 5), min_size=2, max_size=5, unique=True).map(sorted),
       st.sampled_from([11, 100]))
def test_piecewise_range_ap_equals_per_frame_reference(frames, edges, ap_points):
    cfg = EvalConfig(range_bins=[(float(lo), float(hi)) for lo, hi in zip(edges, edges[1:])],
                     ap_points=ap_points)
    assert piecewise_range_ap(frames, cfg) == _range_ap_reference(frames, cfg)
