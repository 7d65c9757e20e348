import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bevfuse.detect as detect
from bevfuse import evaluation, pipeline
from bevfuse import tensor as T
from bevfuse.config import load_config
from bevfuse.detect import (ANCHOR_ORIENTATIONS, CENTER_EPS, NUM_REG, Anchor,
                            DetectionBox, DetectionHeader, HeaderOutput, box_corners_bev,
                            box_rows, decode_detections, decode_rows, decode_targets,
                            encode_rows, encode_targets, iou_3d, iou_upper_bound,
                            make_anchors, may_overlap, nms, rank_detections,
                            regression_rows, rotated_iou_bev)
from bevfuse.evaluation import EvalConfig, match_detections
from bevfuse.geometry import BevGrid
from bevfuse.tensor import Tensor, logistic, no_grad


def test_anchor_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Anchor(0, 0, 0, -1.0, 2.0, 1.0, 0.0)


def test_make_anchors_layout():
    grid = BevGrid((0.0, 4.0), (-2.0, 2.0), (0.0, 1.0), 2, 2, 1)
    anchors = make_anchors(grid, (4.0, 2.0, 1.6), z=0.8)
    assert anchors.shape == (2 * 2 * 2, 7) and anchors.dtype == np.float64
    # rows (x, y, z, w, h, d, t), row-major (iy, ix, orientation)
    assert tuple(anchors[0, [0, 1, 6]]) == (1.0, -1.0, 0.0)
    assert anchors[1, 6] == math.pi / 2
    assert tuple(anchors[2, :2]) == (3.0, -1.0)
    assert tuple(anchors[4, :2]) == (1.0, 1.0)
    assert (anchors[:, 2:6] == (0.8, 4.0, 2.0, 1.6)).all()
    one_by_one = [Anchor(cx, cy, 0.8, 4.0, 2.0, 1.6, t)
                  for cx, cy in grid.pixel_centers().reshape(-1, 2)
                  for t in ANCHOR_ORIENTATIONS]
    assert anchors.tobytes() == box_rows(one_by_one).tobytes()


def test_encode_known_values():
    anchor = Anchor(10.0, 5.0, 1.0, 4.0, 2.0, 1.6, 0.0)
    gt = DetectionBox(12.0, 5.0, 1.0, 8.0, 2.0, 1.6, 0.3)
    enc = encode_targets(gt, anchor)
    np.testing.assert_allclose(enc[0], 2.0 / 10.0)     # (x - a_x) / a_x
    np.testing.assert_allclose(enc[1], 0.0)
    np.testing.assert_allclose(enc[3], math.log(2.0))  # log-2 size case
    np.testing.assert_allclose(enc[4], 0.0)
    np.testing.assert_allclose(enc[6], 0.3)            # raw orientation offset


def test_encode_zero_offset_is_zero_vector():
    anchor = Anchor(8.0, -3.0, 1.0, 4.0, 2.0, 1.6, math.pi / 2)
    gt = DetectionBox(8.0, -3.0, 1.0, 4.0, 2.0, 1.6, math.pi / 2)
    np.testing.assert_allclose(encode_targets(gt, anchor), np.zeros(7), atol=1e-15)


def test_encode_diagonal_normalizer():
    anchor = Anchor(10.0, 0.0, 1.0, 4.0, 2.0, 1.6, 0.0)
    gt = DetectionBox(12.0, 1.0, 1.0, 4.0, 2.0, 1.6, 0.0)
    diag = math.sqrt(4 ** 2 + 2 ** 2 + 1.6 ** 2)
    enc = encode_targets(gt, anchor, center_norm="diagonal")
    np.testing.assert_allclose(enc[:2], [2.0 / diag, 1.0 / diag])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["anchor_coord", "diagonal"]))
def test_encode_decode_round_trip(seed, norm):
    rng = np.random.default_rng(seed)
    anchor = Anchor(*rng.uniform([1, -20, 0.2], [40, 20, 2], 3),
                    *rng.uniform(0.5, 6.0, 3), rng.uniform(-math.pi, math.pi))
    gt = DetectionBox(*rng.uniform([1, -20, 0.2], [40, 20, 2], 3),
                      *rng.uniform(0.5, 6.0, 3), rng.uniform(-math.pi, math.pi))
    enc = encode_targets(gt, anchor, center_norm=norm)
    dec = decode_targets(enc, anchor, center_norm=norm)
    for attr in ("x", "y", "z", "w", "h", "d", "t"):
        assert abs(getattr(dec, attr) - getattr(gt, attr)) < 1e-10


def test_box_corners_axis_aligned():
    box = DetectionBox(0.0, 0.0, 0.0, 4.0, 2.0, 1.0, 0.0)
    corners = box_corners_bev(box)
    assert sorted(map(tuple, corners.round(9))) == [(-2.0, -1.0), (-2.0, 1.0),
                                                    (2.0, -1.0), (2.0, 1.0)]


def test_rotated_iou_identical_boxes():
    box = DetectionBox(3.0, -1.0, 0.0, 4.0, 2.0, 1.5, 0.7)
    assert rotated_iou_bev(box, box) == pytest.approx(1.0, abs=1e-12)


def test_rotated_iou_disjoint_is_zero():
    a = DetectionBox(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.3)
    b = DetectionBox(10.0, 0.0, 0.0, 2.0, 2.0, 1.0, 1.2)
    assert rotated_iou_bev(a, b) == 0.0


def test_rotated_iou_axis_aligned_oracle():
    a = DetectionBox(0.0, 0.0, 0.0, 4.0, 2.0, 1.0, 0.0)
    b = DetectionBox(2.0, 1.0, 0.0, 4.0, 2.0, 1.0, 0.0)
    # overlap 2x1 = 2; union 8 + 8 - 2 = 14
    assert rotated_iou_bev(a, b) == pytest.approx(2.0 / 14.0, abs=1e-12)


def test_rotated_iou_45_degrees_analytic():
    # unit squares, one rotated 45 degrees about the shared center:
    # intersection is a regular octagon of area 2*(sqrt(2)-1) ~ 0.8284
    a = DetectionBox(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
    b = DetectionBox(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, math.pi / 4)
    inter = 2 * (math.sqrt(2) - 1)
    expected = inter / (2 - inter)
    assert rotated_iou_bev(a, b) == pytest.approx(expected, abs=1e-12)


def _mc_iou(a, b, n, rng):
    ca, cb = box_corners_bev(a), box_corners_bev(b)
    lo = np.minimum(ca.min(0), cb.min(0))
    hi = np.maximum(ca.max(0), cb.max(0))
    pts = rng.uniform(lo, hi, (n, 2))

    def inside(box, p):
        c, s = math.cos(box.t), math.sin(box.t)
        dx, dy = p[:, 0] - box.x, p[:, 1] - box.y
        u = dx * c + dy * s
        v = -dx * s + dy * c
        return (np.abs(u) <= box.w / 2) & (np.abs(v) <= box.h / 2)

    ia, ib = inside(a, pts), inside(b, pts)
    inter = (ia & ib).mean()
    union = (ia | ib).mean()
    return float(inter / union)


def test_rotated_iou_monte_carlo():
    rng = np.random.default_rng(0)
    cases = [
        (DetectionBox(0, 0, 0, 4.0, 2.0, 1.0, 0.4),
         DetectionBox(1.0, 0.5, 0, 3.0, 2.5, 1.0, -0.8)),
        (DetectionBox(0, 0, 0, 2.0, 2.0, 1.0, 0.1),
         DetectionBox(0.5, -0.3, 0, 2.0, 1.0, 1.0, 1.2)),
    ]
    for a, b in cases:
        assert rotated_iou_bev(a, b) == pytest.approx(_mc_iou(a, b, 10 ** 6, rng),
                                                      abs=1e-3)


def test_iou_3d_vertical_overlap():
    a = DetectionBox(0, 0, 0.0, 2.0, 2.0, 2.0, 0.0)
    b = DetectionBox(0, 0, 1.0, 2.0, 2.0, 2.0, 0.0)
    # full BEV overlap, vertical overlap 1 of (2 + 2 - 1)
    assert iou_3d(a, b) == pytest.approx(4.0 / 12.0, abs=1e-12)
    c = DetectionBox(0, 0, 5.0, 2.0, 2.0, 2.0, 0.0)
    assert iou_3d(a, c) == 0.0


def test_polygon_intersection_area_squares():
    sq = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    shifted = sq + [1.0, 1.0]
    area = detect._intersection_area(sq.tolist(), shifted.tolist())
    assert area == pytest.approx(1.0, abs=1e-12)


def _nms_quadratic(boxes, iou_th, score_th, max_out, iou=rotated_iou_bev):
    """Every candidate against every kept box, no prefilter."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    keep = []
    for i in order:
        if max_out is not None and len(keep) >= max_out:
            break
        if boxes[i].score < score_th:
            continue
        if any(iou(boxes[i], boxes[j]) >= iou_th for j in keep):
            continue
        keep.append(i)
    return [boxes[i] for i in keep]


def test_nms_matches_quadratic_reference():
    rng = np.random.default_rng(7)
    boxes = [DetectionBox(float(x), float(y), 0.5, 3.0 + float(dw), 1.5, 1.0,
                          float(t), score=float(s))
             for x, y, dw, t, s in zip(rng.uniform(0, 20, 60),
                                       rng.uniform(-10, 10, 60),
                                       rng.uniform(0, 2, 60),
                                       rng.uniform(-1.5, 1.5, 60),
                                       rng.uniform(0, 1, 60))]
    for iou_th, score_th, max_out in ((0.1, 0.1, 50), (0.3, 0.0, 10), (0.5, 0.4, 5)):
        got = nms(boxes, iou_th, score_th, max_out)
        ref = _nms_quadratic(boxes, iou_th, score_th, max_out)
        assert [(b.x, b.y, b.score) for b in got] == \
               [(b.x, b.y, b.score) for b in ref]


def test_nms_equal_score_tie_break_by_index():
    a = DetectionBox(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0, score=0.9)
    b = DetectionBox(0.1, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0, score=0.9)
    kept = nms([a, b], iou_threshold=0.1, score_threshold=0.0)
    assert len(kept) == 1 and kept[0] is a


def test_nan_score_ranks_last_and_nms_keeps_score_order():
    boxes = [DetectionBox(x, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0, score=s)
             for x, s in ((0.0, 0.5), (10.0, math.nan), (20.0, 0.7))]
    assert rank_detections(boxes) == [2, 0, 1]
    assert [b.score for b in nms(boxes, 0.1, 0.1)] == [0.7, 0.5]


def test_nms_max_out_nonpositive_keeps_nothing():
    boxes = [DetectionBox(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0, score=0.9),
             DetectionBox(9.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0, score=0.8)]
    assert nms(boxes, 0.1, 0.1, 0) == []
    assert nms(boxes, 0.1, 0.1, -1) == []
    assert nms(boxes, 0.1, 0.1, 1) == boxes[:1]


# -- the numpy 2-vector kernel the plain-float kernel must reproduce bit for bit

def _ref_corners(box):
    t = box.t if math.isfinite(box.t) else math.nan     # ±inf has no direction
    c, s = math.cos(t), math.sin(t)
    u = np.array([c, s]) * box.w / 2.0
    v = np.array([-s, c]) * box.h / 2.0
    center = np.array([box.x, box.y])
    return np.array([center + u + v, center - u + v, center - u - v, center + u - v])


def _ref_clip(subject, a, b):
    out = []
    n = len(subject)
    edge = b - a
    for i in range(n):
        p, q = subject[i], subject[(i + 1) % n]
        side_p = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])
        side_q = edge[0] * (q[1] - a[1]) - edge[1] * (q[0] - a[0])
        if side_p >= 0:
            out.append(p)
        if (side_p > 0) != (side_q > 0) and side_p != side_q:
            frac = side_p / (side_p - side_q)
            out.append(p + frac * (q - p))
    return np.array(out) if out else np.zeros((0, 2))


def _ref_intersection(pa, pb):
    poly = pa
    for i in range(len(pb)):
        if len(poly) == 0:
            return 0.0
        poly = _ref_clip(poly, pb[i], pb[(i + 1) % len(pb)])
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _ref_iou_bev(a, b):
    area_a, area_b = a.w * a.h, b.w * b.h
    if area_a <= 0 or area_b <= 0:
        return 0.0
    inter = _ref_intersection(_ref_corners(a), _ref_corners(b))
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def _ref_iou_3d(a, b):
    vol_a, vol_b = a.w * a.h * a.d, b.w * b.h * b.d
    if vol_a <= 0 or vol_b <= 0:
        return 0.0
    inter_bev = _ref_intersection(_ref_corners(a), _ref_corners(b))
    zlo = max(a.z - a.d / 2, b.z - b.d / 2)
    zhi = min(a.z + a.d / 2, b.z + b.d / 2)
    inter = inter_bev * max(0.0, zhi - zlo)
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


def _bits(value):
    return np.float64(value).tobytes()


# lattice values make ties, duplicates and exactly touching edges likely
_COORD = st.one_of(st.integers(-4, 4).map(float), st.sampled_from([0.5, -1.5, 2.25]),
                   st.floats(-6.0, 6.0))
_SIZE = st.one_of(st.just(0.0), st.integers(1, 4).map(float), st.floats(0.25, 5.0))
_ANGLE = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2, -math.pi / 2, math.pi]),
                   st.floats(-4.0, 4.0))
_SCORE = st.one_of(st.sampled_from([0.2, 0.5, 0.9]), st.floats(0.0, 1.0))


@st.composite
def _boxes(draw, min_size=0, max_size=10, nan=True):
    """Boxes, and with ``nan`` now and then one NaN field or a ±inf heading."""
    boxes = []
    for _ in range(draw(st.integers(min_size, max_size))):
        f = {k: draw(_COORD) for k in ("x", "y")}
        f.update({k: draw(_SIZE) for k in ("w", "h")})
        f.update(z=draw(st.sampled_from([0.0, 0.5, 2.0])),
                 d=draw(st.sampled_from([0.0, 1.0, 1.5])), t=draw(_ANGLE))
        if nan and draw(st.integers(0, 15)) == 0:
            key = draw(st.sampled_from(["x", "y", "w", "h", "t"]))
            f[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf])) if key == "t" \
                else math.nan
        boxes.append(DetectionBox(**f, score=draw(_SCORE)))
    for i in draw(st.lists(st.integers(0, max(len(boxes) - 1, 0)), max_size=3)):
        if boxes:
            boxes.append(replace(boxes[i]))                # equal fields, own object
    return boxes


@st.composite
def _touching_pair(draw):
    """b shifted so that its corner bounds meet a's, up to an ulp or two."""
    a, b = draw(_boxes(2, 2, nan=False))[:2]
    axis = draw(st.sampled_from([0, 1]))
    ca, cb = box_corners_bev(a), box_corners_bev(replace(b, x=0.0, y=0.0))
    meet = ca[:, axis].max() - cb[:, axis].min()
    meet += draw(st.sampled_from([0.0, 1e-15, -1e-15, 4e-16])) * max(1.0, abs(meet))
    return a, replace(b, **{"xy"[axis]: meet})


def _bev(x, y, w, h, t):
    return DetectionBox(x, y, 0.5, w, h, 1.0, t)


@settings(max_examples=400, deadline=None)
@given(_boxes(2, 2))
# the clip's branches: an edge shared by both boxes; a corner exactly on the
# other box's edge (a side of exactly 0.0); one box wholly inside the other
# (every side > 0, the fast path); two identical boxes
@example([_bev(0.0, 0.0, 4.0, 2.0, 0.0), _bev(4.0, 0.0, 4.0, 2.0, 0.0)])
@example([_bev(0.0, 0.0, 4.0, 2.0, 0.0), _bev(1.0, 1.0, 2.0, 2.0, 0.0)])
@example([_bev(0.0, 0.0, 4.0, 2.0, 0.0), _bev(0.5, 0.2, 1.0, 0.5, 0.3)])
@example([_bev(1.0, -0.5, 3.0, 1.5, 0.7), _bev(1.0, -0.5, 3.0, 1.5, 0.7)])
def test_rotated_iou_matches_array_kernel_bitwise(pair):
    a, b = pair[:2]
    assert box_corners_bev(a).tobytes() == _ref_corners(a).tobytes()
    assert _bits(rotated_iou_bev(a, b)) == _bits(_ref_iou_bev(a, b))
    assert _bits(iou_3d(a, b)) == _bits(_ref_iou_3d(a, b))
    pa, pb = _ref_corners(a), _ref_corners(b)
    area = detect._intersection_area(pa.tolist(), pb.tolist())
    assert _bits(area) == _bits(_ref_intersection(pa, pb))


@settings(max_examples=300, deadline=None)
@given(_boxes(2, 2, nan=False))
def test_rotated_iou_bounded_and_symmetric(pair):
    a, b = pair[:2]
    ab, ba = rotated_iou_bev(a, b), rotated_iou_bev(b, a)
    assert 0.0 <= ab <= 1.0
    assert abs(ab - ba) <= 1e-12


def _check_may_overlap_is_exact(a, b):
    inside = may_overlap([a], [b])[0, 0]
    nan = {k for bx in (a, b) for k in ("x", "y", "w", "h", "t")
           if math.isnan(getattr(bx, k)) or k == "t" and math.isinf(bx.t)}
    if nan & {"w", "h", "t"}:
        assert inside       # NaN half-extents (±inf headings too): neither axis prunes
    elif nan:
        # a NaN centre coordinate takes only its own axis out of the test
        flat = {k: 0.0 for k in nan}
        assert inside == may_overlap([replace(a, **flat)], [replace(b, **flat)])[0, 0]
    ca, cb = box_corners_bev(a), box_corners_bev(b)
    if (ca.min(0) <= cb.max(0)).all() and (cb.min(0) <= ca.max(0)).all():
        assert inside                                       # corner bounds meet
    if not inside:
        assert rotated_iou_bev(a, b) == 0.0 and iou_3d(a, b) == 0.0
        if a.w * a.h > 0 and b.w * b.h > 0:     # a point or a segment clips nothing
            assert detect._intersection_area(ca.tolist(), cb.tolist()) == 0.0


@settings(max_examples=400, deadline=None)
@given(_boxes(2, 2))
def test_pairs_outside_may_overlap_do_not_intersect(pair):
    _check_may_overlap_is_exact(*pair[:2])


@settings(max_examples=400, deadline=None)
@given(_touching_pair())
def test_touching_pairs_stay_in_may_overlap(pair):
    _check_may_overlap_is_exact(*pair)


@settings(max_examples=100, deadline=None)
@given(_boxes(0, 8), _boxes(0, 8))
def test_may_overlap_shape_matches_pairwise(a, b):
    mask = may_overlap(a, b)
    assert mask.shape == (len(a), len(b)) and mask.dtype == bool
    for i, j in np.ndindex(mask.shape):
        assert mask[i, j] == may_overlap([a[i]], [b[j]])[0, 0]


@settings(max_examples=300, deadline=None)
@given(_boxes(0, 14),
       st.one_of(st.sampled_from([-0.1, 0.0, 1e-12, 0.1, 0.3, 1.0]), st.floats(-0.5, 1.0)),
       st.one_of(st.sampled_from([0.0, 0.2, 0.5]), st.floats(0.0, 1.0)),
       st.one_of(st.none(), st.integers(-1, 8)))
def test_nms_matches_quadratic_oracle(boxes, iou_th, score_th, max_out):
    got = nms(boxes, iou_th, score_th, max_out)
    ref = _nms_quadratic(boxes, iou_th, score_th, max_out, iou=_ref_iou_bev)
    assert len(got) == len(ref) and all(g is r for g, r in zip(got, ref))


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_heading_is_never_pruned_and_overlaps_nothing(t):
    a = DetectionBox(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, t, score=0.9)
    b = DetectionBox(0.5, 0.0, 0.0, 2.0, 2.0, 1.0, 0.3, score=0.8)
    assert may_overlap([a], [b])[0, 0] and may_overlap([b], [a])[0, 0]
    assert iou_upper_bound(box_rows([a]), box_rows([b]))[0] == math.inf
    for x, y in ((a, b), (b, a)):
        assert rotated_iou_bev(x, y) == 0.0 and iou_3d(x, y) == 0.0
    kept = nms([a, b], 0.1, 0.1)
    assert len(kept) == 2 and kept[0] is a and kept[1] is b


@pytest.mark.parametrize("sizes", [{"w": math.inf, "h": 0.0}, {"d": math.inf}],
                         ids=["w_inf_h_0", "d_inf"])
def test_infinite_size_of_a_decoded_box_gives_iou_0(sizes):
    # decoded fields are np.float64: inf * 0 and inf - inf on them would warn
    a = DetectionBox(*map(np.float64, (0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)))
    a = replace(a, **{k: np.float64(v) for k, v in sizes.items()})
    b = DetectionBox(0.5, 0.0, 0.0, 2.0, 2.0, 1.0, 0.3)
    for x, y in ((a, b), (b, a), (a, a)):
        assert iou_3d(x, y) == 0.0
        if "w" in sizes:        # an infinite depth leaves the BEV IoU as it is
            assert rotated_iou_bev(x, y) == 0.0


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y", "w", "h"])
def test_infinite_centre_or_size_is_never_pruned(field, value, monkeypatch):
    # inf - inf and 0 * inf are NaN: a RuntimeWarning, which pytest makes an error
    a = replace(DetectionBox(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0, score=0.9), **{field: value})
    b = DetectionBox(0.5, 0.0, 0.0, 2.0, 2.0, 1.0, 0.3, score=0.8)
    assert may_overlap([a], [b])[0, 0] and may_overlap([b], [a])[0, 0]
    boxes = [a, b, replace(b, x=-0.5)]
    assert nms(boxes, 0.1, 0.1) == _nms_quadratic(boxes, 0.1, 0.1, None)
    for kind in ("bev", "3d"):
        cfg = EvalConfig(iou_kind=kind, iou_threshold=0.1)
        flags = match_detections(boxes, boxes, cfg)
        with monkeypatch.context() as m:
            m.setattr(evaluation, "may_overlap", lambda d, g: np.ones((len(d), len(g)), bool))
            np.testing.assert_array_equal(flags, match_detections(boxes, boxes, cfg))



@pytest.mark.parametrize("huge", [{"x": 1.7e308}, {"y": 1.7e308}, {"w": 1.7e308},
                                  {"w": 1.7e308, "h": 1.7e308}], ids=["x", "y", "w", "w_h"])
def test_huge_finite_centre_or_size_never_warns(huge, monkeypatch):
    # a reach or slack that overflows is inf, which never prunes; an overflow
    # warning would be a RuntimeWarning, which pytest makes an error
    a = replace(DetectionBox(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.7, score=0.9), **huge)
    b = DetectionBox(0.5, 0.0, 0.0, 2.0, 2.0, 1.0, 0.3, score=0.8)
    assert may_overlap([a], [b])[0, 0] == ("w" in huge)   # a huge centre lies apart
    assert not may_overlap([b], [replace(b, x=1e300)])[0, 0]     # truly distant: pruned
    boxes = [a, b, replace(b, x=-0.5)]
    assert nms(boxes, 0.1, 0.1) == _nms_quadratic(boxes, 0.1, 0.1, None)
    for kind in ("bev", "3d"):
        # not ``a`` against itself: the shoelace sum of its clipped corners overflows
        cfg = EvalConfig(iou_kind=kind, iou_threshold=0.1)
        flags = match_detections(boxes, boxes[1:], cfg)
        with monkeypatch.context() as m:
            m.setattr(evaluation, "may_overlap", lambda d, g: np.ones((len(d), len(g)), bool))
            np.testing.assert_array_equal(flags, match_detections(boxes, boxes[1:], cfg))


def _inf_field_pair():
    return st.tuples(_boxes(2, 2, nan=False), st.sampled_from(["x", "y", "w", "h", "t"]),
                     st.sampled_from([math.inf, -math.inf])).map(
        lambda p: (replace(p[0][0], **{p[1]: p[2]}), p[0][1]))


_BOUND_PAIRS = st.one_of(_boxes(2, 2).map(lambda p: tuple(p[:2])), _touching_pair(),
                         _boxes(1, 1, nan=False).map(lambda p: (p[0], replace(p[0]))),
                         _inf_field_pair())


@settings(max_examples=600, deadline=None)
@given(_BOUND_PAIRS)
def test_iou_upper_bound_is_sound(pair):
    a, b = pair
    ab, ba = iou_upper_bound(box_rows([a, b]), box_rows([b, a]))
    fields = [getattr(bx, k) for bx in pair for k in "xywht"]
    if not all(map(math.isfinite, fields)):
        assert ab == ba == math.inf                 # never prunes
    if any(math.isinf(getattr(bx, k)) for bx in pair for k in "xywh"):
        return              # the scalar kernels take no infinite coordinate or size
    for bound in (ab, ba):
        assert not bound < rotated_iou_bev(a, b)    # NaN-safe >=
        assert not bound < iou_3d(a, b)


def _decoded_frame(seed: int) -> list[DetectionBox]:
    """Boxes decoded from the seeded initial weights of configs/default.yaml."""
    cfg = load_config(pathlib.Path(__file__).parent.parent / "configs" / "default.yaml",
                      environ={})
    cfg.seed, cfg.data.synthetic.seed, cfg.data.n_scenes = seed, seed * 1000, 1
    model = pipeline.build_model(cfg)
    prep = pipeline.prepare_scene(model, cfg, pipeline.build_scenes(cfg)[0])
    with no_grad():
        header = model.forward(prep.bev_input, prep.sample.image_feature_input, prep.plan)
    return decode_detections(header, model.anchors, center_norm=cfg.loss.center_norm)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nms_on_decoded_frames_clips_fewer_pairs(seed, monkeypatch):
    decoded = _decoded_frame(seed)
    headings = np.random.default_rng(seed).uniform(-math.pi, math.pi, len(decoded))
    calls = []
    monkeypatch.setattr(detect, "rotated_iou_bev",
                        lambda a, b: calls.append(1) or rotated_iou_bev(a, b))
    for boxes in (decoded, [replace(b, t=float(t)) for b, t in zip(decoded, headings)]):
        calls.clear()
        got = nms(boxes, 0.1, 0.1, 50)
        pruned = len(calls)
        ref = _nms_quadratic(boxes, 0.1, 0.1, 50)
        assert len(got) == len(ref) and all(g is r for g, r in zip(got, ref))
        with monkeypatch.context() as m:     # may_overlap alone: the bound prunes nothing
            m.setattr(detect, "iou_upper_bound", lambda a, b: np.full(len(a), np.inf))
            calls.clear()
            assert nms(boxes, 0.1, 0.1, 50) == got
        assert pruned < len(calls)


def test_nms_clips_the_likeliest_suppressor_first(monkeypatch):
    # a and b lie apart and are both kept. c's bounds with both reach the
    # threshold, but only b, the higher bound, suppresses it: c is clipped once
    a = DetectionBox(0.0, 0.0, 0.0, 4.0, 2.0, 1.0, math.pi / 4, score=0.9)
    b = DetectionBox(5.0, 0.0, 0.0, 4.0, 2.0, 1.0, 0.0, score=0.8)
    c = DetectionBox(3.0, 0.0, 0.0, 4.0, 2.0, 1.0, 0.0, score=0.7)
    bound_a, bound_b = iou_upper_bound(box_rows([c, c]), box_rows([a, b]))
    assert rotated_iou_bev(c, a) < 0.1 <= bound_a < bound_b <= 1.0
    assert rotated_iou_bev(c, b) >= 0.1 and not may_overlap([a], [b])[0, 0]
    clipped = []
    monkeypatch.setattr(detect, "rotated_iou_bev",
                        lambda x, y: clipped.append((x, y)) or rotated_iou_bev(x, y))
    got = nms([c, b, a], 0.1, 0.1)
    ref = _nms_quadratic([c, b, a], 0.1, 0.1, None)
    assert len(got) == len(ref) == 2 and all(g is r for g, r in zip(got, ref))
    assert len(clipped) == 1 and clipped[0][0] is c and clipped[0][1] is b


def test_header_output_layout_and_decode():
    grid = BevGrid((0.0, 4.0), (-2.0, 2.0), (0.0, 1.0), 2, 2, 1)
    anchors = make_anchors(grid, (4.0, 2.0, 1.6), z=0.8)
    raw = np.zeros((1, 2 * 6, 2, 2))
    raw[0, 0, 0, 0] = 5.0     # anchor 0 at pixel (0, 0): confident hit
    header = HeaderOutput(Tensor(raw), "bev")
    flat = header.rows.data
    assert flat.shape == (8, 6)
    assert flat[0, 0] == 5.0
    boxes = decode_detections(header, anchors)
    assert boxes[0].score == pytest.approx(1 / (1 + math.exp(-5.0)))
    # zero offsets decode to the anchor itself
    assert (boxes[0].x, boxes[0].y, boxes[0].t) == (1.0, -1.0, 0.0)
    assert (boxes[0].w, boxes[0].h) == (4.0, 2.0)


@pytest.mark.parametrize("variant,num_reg", list(NUM_REG.items()))
def test_each_variant_sets_the_header_channel_counts(variant, num_reg):
    header = DetectionHeader(6, variant, rng=np.random.default_rng(0))
    out = header.forward(Tensor(np.random.default_rng(1).standard_normal((1, 6, 3, 3))))
    assert out.raw.shape == (1, 2 * (1 + num_reg), 3, 3)
    assert out.num_reg == num_reg


@pytest.mark.parametrize("variant", sorted(NUM_REG))
def test_header_flat_rows_follow_make_anchors(variant):
    grid = BevGrid((0.0, 6.0), (-2.0, 2.0), (0.0, 1.0), 3, 2, 1)     # nx != ny
    anchors = make_anchors(grid, (4.0, 2.0, 1.6), z=0.8)
    width = 1 + NUM_REG[variant]
    header = DetectionHeader(3, variant, np.random.default_rng(0))
    out = header.forward(Tensor(np.zeros((1, 3, grid.ny, grid.nx))))
    assert out.rows.shape == (len(anchors), width)
    # each orientation's first three cells carry its anchor's x, y and t
    raw = np.zeros(out.raw.shape)
    centers = grid.pixel_centers()
    for a, t in enumerate(ANCHOR_ORIENTATIONS):
        raw[0, a * width], raw[0, a * width + 1], raw[0, a * width + 2] = \
            centers[..., 0], centers[..., 1], t
    flat = HeaderOutput(Tensor(raw), variant).rows.data
    assert flat[:, :3].tolist() == anchors[:, [0, 1, 6]].tolist()



@pytest.mark.parametrize("variant", sorted(NUM_REG))
def test_header_output_scores_and_select_match_row_then_column_gathers(variant):
    rng = np.random.default_rng(4)
    r = NUM_REG[variant]
    raw = Tensor(rng.uniform(-8.0, 8.0, (2, 2 * (1 + r), 3, 2)), requires_grad=True)
    header = HeaderOutput(raw, variant)          # a batch of two scenes
    assert header.rows.shape == (2 * 3 * 2 * 2, 1 + r)
    assert header.scores.tobytes() == logistic(header.rows.data[:, 0]).tobytes()

    picked, n_pos = np.array([13, 2, 2, 20, 7, 0]), 3
    w_cls = Tensor(rng.standard_normal(len(picked)))
    w_reg = Tensor(rng.standard_normal((n_pos, r)))
    e_cls, e_reg = np.eye(1 + r)[:, :1], np.eye(1 + r)[:, 1:]

    def grad_of(logits, offsets):
        raw.grad = None
        ((logits * w_cls).sum() + (offsets * w_reg).sum()).backward()
        return raw.grad

    logits, offsets = header.select(picked, n_pos)
    got = grad_of(logits, offsets)
    rows = HeaderOutput(raw, variant).rows
    ref_logits = T.matmul(T.gather_rows(rows, picked), Tensor(e_cls)).reshape(len(picked))
    ref_offsets = T.matmul(T.gather_rows(rows, picked[:n_pos]), Tensor(e_reg))
    assert logits.data.tobytes() == ref_logits.data.tobytes()
    assert offsets.data.tobytes() == ref_offsets.data.tobytes()
    assert got.tobytes() == grad_of(ref_logits, ref_offsets).tobytes()

    logits, offsets = header.select(picked, 0)
    assert logits.shape == (len(picked),) and offsets.shape == (0, r)


def test_kitti3d_decode_carries_height2d():
    grid = BevGrid((0.0, 4.0), (-2.0, 2.0), (0.0, 1.0), 1, 1, 1)
    anchors = make_anchors(grid, (4.0, 2.0, 1.6), z=0.8)
    raw = np.zeros((1, 2 * 9, 1, 1))
    raw[0, 8, 0, 0] = 42.0    # height2d channel of anchor 0
    header = HeaderOutput(Tensor(raw), "kitti3d")
    boxes = decode_detections(header, anchors)
    assert boxes[0].height2d == 42.0


# -- the per-box encode/decode the row kernels must reproduce bit for bit -----

_REF_LAYOUT = {"bev": [0, 1, 3, 4, 6], "3d": list(range(7)), "kitti3d": list(range(7))}


def _ref_norm(anchor, center_norm):
    if center_norm == "anchor_coord":
        coords = np.array([anchor.x, anchor.y, anchor.z])
        return np.where(np.abs(coords) > CENTER_EPS, coords,
                        np.where(coords >= 0, CENTER_EPS, -CENTER_EPS))
    diag = math.sqrt(anchor.w ** 2 + anchor.h ** 2 + anchor.d ** 2)
    return np.array([diag, diag, diag])


def _ref_encode(gt, anchor, center_norm, wrap):
    norm = _ref_norm(anchor, center_norm)
    p_center = (np.array([gt.x, gt.y, gt.z]) - np.array([anchor.x, anchor.y, anchor.z])) / norm
    p_size = np.log(np.array([gt.w, gt.h, gt.d]) / np.array([anchor.w, anchor.h, anchor.d]))
    p_t = gt.t - anchor.t
    if wrap:
        p_t = (p_t + math.pi / 2) % math.pi - math.pi / 2
        if p_t == -math.pi / 2:
            p_t = math.pi / 2
    return np.concatenate([p_center, p_size, [p_t]])


def _ref_decode(p, anchor, center_norm):
    norm = _ref_norm(anchor, center_norm)
    cx, cy, cz = np.array([anchor.x, anchor.y, anchor.z]) + p[:3] * norm
    w, h, d = np.array([anchor.w, anchor.h, anchor.d]) * np.exp(p[3:6])
    return DetectionBox(cx, cy, cz, w, h, d, anchor.t + p[6])


def _ref_training_row(variant, gt, anchor, center_norm, wrap):
    row = _ref_encode(gt, anchor, center_norm, wrap)[_REF_LAYOUT[variant]]
    return np.concatenate([row, [gt.height2d]]) if variant == "kitti3d" else row


def _ref_decode_detections(flat, anchors, center_norm):
    boxes = []
    for row, anchor in zip(flat, anchors):
        p = np.zeros(7)
        p[_REF_LAYOUT[{6: "bev", 8: "3d", 9: "kitti3d"}[len(row)]]] = row[1:8]
        box = _ref_decode(p, anchor, center_norm)
        box.score = float(1.0 / (1.0 + np.exp(-np.clip(row[0], -500, 500))))
        if len(row) == 9:
            box.height2d = float(row[8])
        boxes.append(box)
    return boxes


_BOX_FIELDS = ("x", "y", "z", "w", "h", "d", "t", "score", "height2d")
# 0, -0.0 and values about CENTER_EPS exercise the normalizer's guard
_ROW_COORD = st.one_of(st.sampled_from([0.0, -0.0, CENTER_EPS, -CENTER_EPS, 5e-7, -5e-7]),
                       st.floats(-60.0, 60.0))
_ROW_SIZE = st.one_of(st.sampled_from([1.0, 1.6, 4.0]), st.floats(0.05, 12.0))
# gt.t - anchor.t lands on -pi/2 (and pi/2) for several of these pairs
_ROW_ANGLE = st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                                        1.5 * math.pi]), st.floats(-4.0, 4.0))


@st.composite
def _gt_anchor_rows(draw):
    """Ground truths, anchors, and each anchor's gt index and free offsets."""
    def box(cls, **extra):
        return cls(*(draw(_ROW_COORD) for _ in range(3)),
                   *(draw(_ROW_SIZE) for _ in range(3)), draw(_ROW_ANGLE), **extra)
    gts = [box(DetectionBox, height2d=draw(st.floats(0.0, 300.0)))
           for _ in range(draw(st.integers(1, 4)))]
    n = draw(st.integers(1, 6))
    anchors = [box(Anchor) for _ in range(n)]
    gt_idx = np.array([draw(st.integers(0, len(gts) - 1)) for _ in range(n)])
    offsets = np.array([[draw(st.floats(-5.0, 5.0)) for _ in range(7)] for _ in range(n)])
    return gts, anchors, gt_idx, offsets


@settings(max_examples=300, deadline=None)
@given(_gt_anchor_rows(), st.sampled_from(["anchor_coord", "diagonal"]), st.booleans())
def test_row_kernels_match_per_box_formulas_bitwise(data, center_norm, wrap):
    gts, anchors, gt_idx, offsets = data
    g_rows, a_rows = box_rows([gts[i] for i in gt_idx]), box_rows(anchors)
    enc = encode_rows(g_rows, a_rows, center_norm, wrap)
    ref = np.array([_ref_encode(gts[i], a, center_norm, wrap) for i, a in zip(gt_idx, anchors)])
    assert enc.tobytes() == ref.tobytes()
    for p in (enc, offsets):
        dec = decode_rows(p, a_rows, center_norm)
        ref = box_rows([_ref_decode(q, a, center_norm) for q, a in zip(p, anchors)])
        assert dec.tobytes() == ref.tobytes()
    # an N-row call equals N one-row calls, and the one-box API is the one-row case
    for k, (i, a) in enumerate(zip(gt_idx, anchors)):
        one = slice(k, k + 1)
        assert encode_rows(g_rows[one], a_rows[one], center_norm, wrap).tobytes() \
            == enc[one].tobytes()
        assert encode_targets(gts[i], a, center_norm, wrap).tobytes() == enc[k].tobytes()
        assert decode_rows(offsets[one], a_rows[one], center_norm).tobytes() \
            == dec[one].tobytes()
        assert box_rows([decode_targets(offsets[k], a, center_norm)]).tobytes() \
            == dec[one].tobytes()


def test_diagonal_norm_matches_pow_to_the_last_bit():
    # for this size w * w + h * h + d * d rounds apart from w ** 2 + h ** 2 + d ** 2
    anchor = Anchor(10.0, -3.0, 0.8, 5.029890047422805, 0.28508206884904835,
                    0.9008519416738172, 0.0)
    gt = DetectionBox(12.0, 1.0, 1.0, 4.0, 2.0, 1.6, 0.3)
    assert encode_targets(gt, anchor, "diagonal").tobytes() \
        == _ref_encode(gt, anchor, "diagonal", False).tobytes()


@settings(max_examples=200, deadline=None)
@given(_gt_anchor_rows(), st.sampled_from(sorted(NUM_REG)),
       st.sampled_from(["anchor_coord", "diagonal"]), st.booleans(),
       st.lists(st.floats(-800.0, 800.0), min_size=6, max_size=6))
def test_training_rows_decode_through_header_bitwise(data, variant, center_norm, wrap, logits):
    gts, anchors, gt_idx, _ = data
    a_rows = box_rows(anchors)
    rows = regression_rows(variant, gts, gt_idx, a_rows, center_norm, wrap)
    ref = np.array([_ref_training_row(variant, gts[i], a, center_norm, wrap)
                    for i, a in zip(gt_idx, anchors)])
    assert rows.shape == (len(anchors), NUM_REG[variant])
    assert rows.tobytes() == ref.tobytes()
    assert regression_rows(variant, gts, gt_idx[:0], a_rows[:0]).shape == (0, NUM_REG[variant])

    flat = np.concatenate([np.array(logits[:len(anchors)])[:, None], rows], axis=1)
    header = HeaderOutput(Tensor(np.ascontiguousarray(flat.T[None, :, None, :])), variant)
    got = decode_detections(header, a_rows, center_norm)
    want = _ref_decode_detections(flat, anchors, center_norm)
    assert len(got) == len(want)
    for g, w, i, a in zip(got, want, gt_idx, anchors):
        for f in _BOX_FIELDS:       # the same value and the same type, so reprs agree
            assert type(getattr(g, f)) is type(getattr(w, f))
            assert _bits(getattr(g, f)) == _bits(getattr(w, f))
        assert g.cls == w.cls == 0
        assert g.height2d == (gts[i].height2d if variant == "kitti3d" else 0.0)
        if variant == "bev":        # offsets it does not regress decode to the anchor
            assert (g.z, g.d) == (a.z, a.d)
