"""Anchors, detection header, box encode/decode, rotated IoU and NMS."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Annotated, Literal

import numpy as np

from . import tensor as T
from .domains import Checked, Finite, Pos
from .fusion import Conv2dLayer
from .geometry import BevGrid
from .tensor import Tensor, logistic

# regression-row layout: the columns of the full row (p_x, p_y, p_z, p_w,
# p_h, p_d, p_t, raw 2D box height) that each variant's header regresses
REG_INDICES = {
    "bev": (0, 1, 3, 4, 6),            # z and d terms removed
    "3d": (0, 1, 2, 3, 4, 5, 6),
    "kitti3d": (0, 1, 2, 3, 4, 5, 6, 7),
}
NUM_REG = {variant: len(idx) for variant, idx in REG_INDICES.items()}
Variant = Literal[tuple(REG_INDICES)]
ANCHOR_ORIENTATIONS = (0.0, math.pi / 2)

# guard for the literal center encoding (k - a_k) / a_k when a_k ~ 0
CENTER_EPS = 1e-6


@dataclass(frozen=True)
class Anchor:
    """One fixed-size prior box; ``make_anchors`` stores anchors as rows."""

    x: float
    y: float
    z: float
    w: float            # extent along heading
    h: float            # lateral extent
    d: float            # vertical extent
    t: float

    def __post_init__(self):
        if min(self.w, self.h, self.d) <= 0:
            raise ValueError("anchor sizes must be positive")


@dataclass
class AnchorConfig(Checked):
    """The one anchor size (w, h, d) and center height of every pixel's
    anchors: the ``anchor`` section of a config."""

    size: Annotated[tuple[float, float, float], Finite, Pos] = (4.0, 2.0, 1.6)
    z: Annotated[float, Finite] = 0.8


@dataclass
class DetectionBox:
    """Detector output / ground-truth box. ``w`` runs along the heading ``t``,
    ``h`` lateral, ``d`` vertical; center is the 3D box center."""

    x: float
    y: float
    z: float
    w: float
    h: float
    d: float
    t: float
    score: float = 1.0
    cls: int = 0
    ignored: bool = False      # 'DontCare'-style label: matches count as neither TP nor FP
    height2d: float = 0.0      # image-space 2D box height, kitti3d variant only


def box_rows(boxes) -> np.ndarray:
    """N x 7 rows (x, y, z, w, h, d, t) of boxes or anchors."""
    return np.array([(b.x, b.y, b.z, b.w, b.h, b.d, b.t) for b in boxes], float).reshape(-1, 7)


def make_anchors(grid: BevGrid, size: tuple[float, float, float],
                 z: float) -> np.ndarray:
    """N x 7 rows (x, y, z, w, h, d, t): anchors of orientations 0 and pi/2 at
    every pixel of the output raster, row-major by (iy, ix, orientation)."""
    centers = grid.pixel_centers().reshape(-1, 1, 2)
    rows = np.empty((len(centers), len(ANCHOR_ORIENTATIONS), 7))
    rows[..., :2], rows[..., 2:6], rows[..., 6] = centers, (z, *size), ANCHOR_ORIENTATIONS
    return rows.reshape(-1, 7)


# -- target encoding ----------------------------------------------------------

def _center_normalizers(anchors: np.ndarray, center_norm: str) -> np.ndarray:
    if center_norm == "anchor_coord":
        coords = anchors[:, :3]
        return np.where(np.abs(coords) > CENTER_EPS, coords,
                        np.where(coords >= 0, CENTER_EPS, -CENTER_EPS))
    if center_norm == "diagonal":
        # libm pow, as ``**`` on a float: x * x differs from it in rare last bits
        sq = np.float_power(anchors[:, 3:6], 2)
        return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])[:, None]
    raise ValueError(f"unknown center_norm {center_norm!r}")


def encode_rows(gt_rows: np.ndarray, anchor_rows: np.ndarray,
                center_norm: str = "anchor_coord",
                wrap_orientation: bool = False) -> np.ndarray:
    """N x 7 offsets (p_x, p_y, p_z, p_w, p_h, p_d, p_t) of box rows from
    anchor rows. Centers: (k - a_k) / a_k with the anchor coordinate as
    normalizer (the printed form; ``diagonal`` substitutes the anchor diagonal
    length). Sizes: log(k / a_k). Orientation: raw difference, optionally
    wrapped to (-pi/2, pi/2]."""
    norm = _center_normalizers(anchor_rows, center_norm)
    p_t = gt_rows[:, 6:] - anchor_rows[:, 6:]
    if wrap_orientation:
        p_t = (p_t + math.pi / 2) % math.pi - math.pi / 2
        p_t[p_t == -math.pi / 2] = math.pi / 2
    return np.concatenate([(gt_rows[:, :3] - anchor_rows[:, :3]) / norm,
                           np.log(gt_rows[:, 3:6] / anchor_rows[:, 3:6]), p_t], axis=1)


def decode_rows(p: np.ndarray, anchor_rows: np.ndarray,
                center_norm: str = "anchor_coord") -> np.ndarray:
    """N x 7 box rows: the exact inverse of encode_rows (without orientation
    wrapping). Columns of ``p`` past the seventh are ignored. A size offset
    past about 709 decodes to an infinite size, without a warning."""
    norm = _center_normalizers(anchor_rows, center_norm)
    with np.errstate(over="ignore"):
        sizes = anchor_rows[:, 3:6] * np.exp(p[:, 3:6])
    return np.concatenate([anchor_rows[:, :3] + p[:, :3] * norm, sizes,
                           anchor_rows[:, 6:] + p[:, 6:7]], axis=1)


def encode_targets(gt: DetectionBox, anchor: Anchor, center_norm: str = "anchor_coord",
                   wrap_orientation: bool = False) -> np.ndarray:
    """Offsets of one box w.r.t. one anchor: the one-row ``encode_rows``."""
    return encode_rows(box_rows([gt]), box_rows([anchor]), center_norm, wrap_orientation)[0]


def decode_targets(p: np.ndarray, anchor: Anchor,
                   center_norm: str = "anchor_coord") -> DetectionBox:
    """Exact inverse of encode_targets: the one-row ``decode_rows``."""
    return DetectionBox(*decode_rows(np.atleast_2d(p), box_rows([anchor]), center_norm)[0])


def regression_rows(variant: str, gts: list[DetectionBox], gt_idx: np.ndarray,
                    anchor_rows: np.ndarray, center_norm: str = "anchor_coord",
                    wrap_orientation: bool = False) -> np.ndarray:
    """N x NUM_REG[variant] training rows: ``gts[gt_idx[i]]`` encoded against
    anchor row i, laid out by ``REG_INDICES[variant]``."""
    offsets = encode_rows(box_rows(gts)[gt_idx], anchor_rows, center_norm, wrap_orientation)
    heights = np.array([g.height2d for g in gts], dtype=np.float64)[gt_idx, None]
    return np.concatenate([offsets, heights], axis=1)[:, REG_INDICES[variant]]


# -- rotated IoU --------------------------------------------------------------

def _corners(box) -> list[tuple[float, float]]:
    """Corners of the BEV rectangle as float pairs, counter-clockwise. An
    infinite heading has no direction: it reads as NaN, and so do the corners."""
    t = box.t if not math.isinf(box.t) else math.nan
    c, s = math.cos(t), math.sin(t)
    w, h = float(box.w), float(box.h)
    ux, uy = c * w / 2.0, s * w / 2.0          # along heading
    vx, vy = -s * h / 2.0, c * h / 2.0         # lateral
    x, y = float(box.x), float(box.y)
    return [(x + ux + vx, y + uy + vy), (x - ux + vx, y - uy + vy),
            (x - ux - vx, y - uy - vy), (x + ux - vx, y + uy - vy)]


def box_corners_bev(box) -> np.ndarray:
    """4 x 2 corner coordinates of the (possibly rotated) BEV rectangle,
    counter-clockwise."""
    return np.array(_corners(box))


def _poly_area(poly: list) -> float:
    if len(poly) < 3:
        return 0.0
    # np.dot, not a Python sum: its summation order sets the last bits. The
    # closed polygon is read flat, x and y then strided views of its n x 2 rows.
    p = np.fromiter(chain.from_iterable(poly + poly[:1]), float, 2 * len(poly) + 2)
    x, y = p[0::2], p[1::2]
    return 0.5 * abs(np.dot(x[:-1], y[1:]) - np.dot(y[:-1], x[1:]))


def _clip_polygon(subject: list, a, b) -> list:
    """Sutherland-Hodgman step: keep the part of ``subject`` left of edge a->b."""
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    sides = [ex * (py - ay) - ey * (px - ax) for px, py in subject]
    if all(map((0.0).__lt__, sides)):   # 0.0 < NaN is False, as NaN > 0 is
        return subject                  # wholly left of the edge: the loop copies it
    out = []
    p, side_p = subject[0], sides[0]
    for j in range(1 - len(subject), 1):        # the next vertex, wrapping to 0
        q, side_q = subject[j], sides[j]
        if side_p >= 0:
            out.append(p)
        if (side_p > 0) != (side_q > 0) and side_p != side_q:
            frac = side_p / (side_p - side_q)
            out.append((p[0] + frac * (q[0] - p[0]), p[1] + frac * (q[1] - p[1])))
        p, side_p = q, side_q
    return out


def _intersection_area(pa: list, pb: list) -> float:
    """Area shared by two convex counter-clockwise polygons, given as lists
    of (x, y) vertices."""
    poly = pa
    for i in range(len(pb)):
        if not poly:
            return 0.0
        poly = _clip_polygon(poly, pb[i], pb[i + 1 - len(pb)])
    return _poly_area(poly)


def may_overlap(a, b) -> np.ndarray:
    """bool[len(a), len(b)], False only for pairs whose corners' axis-aligned
    bounds lie apart: their ``rotated_iou_bev`` and ``iou_3d`` are exactly 0.0.

    Half-extents are 0.5 (|cos t| w + |sin t| h) and 0.5 (|sin t| w + |cos t| h).
    The bound is widened by 1e-9 relative to the coordinates and extents, far
    above the rounding of the corners and of the clipping, so a touching pair
    is never pruned. A NaN, an infinity or an overflow never prunes: such a
    centre coordinate takes its own axis out of the test, such a size or angle both.
    """
    return _may_overlap_rows(box_rows(a), box_rows(b))


def _may_overlap_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    def fields(f):
        c, s = np.abs(np.cos(f[:, 6])), np.abs(np.sin(f[:, 6]))
        w, h = np.abs(f[:, 3]), np.abs(f[:, 4])
        return f[:, 0], f[:, 1], 0.5 * (c * w + s * h), 0.5 * (s * w + c * h)

    def apart(ca, ra, cb, rb):
        reach = ra[:, None] + rb[None, :]
        slack = 1e-9 * (np.abs(ca)[:, None] + np.abs(cb)[None, :] + reach)
        return np.abs(ca[:, None] - cb[None, :]) - reach > slack

    # an infinite input makes NaN, a huge finite one overflows to inf: neither prunes
    with np.errstate(invalid="ignore", over="ignore"):
        ax, ay, arx, ary = fields(a)
        bx, by, brx, bry = fields(b)
        return ~(apart(ax, arx, bx, brx) | apart(ay, ary, by, bry))


def iou_upper_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair of box rows ``(a[k], b[k])`` (N x 7 each), an upper bound on
    their ``rotated_iou_bev`` and ``iou_3d``.

    In a box's own frame the other box lies inside its bounding rectangle, so
    their intersection is at most the overlap of the box with that rectangle:
    a product of two interval overlaps, zero when an axis separates them. The
    smaller of the two frames' overlaps, already capped by both areas, bounds
    the intersection I, and IoU <= I / (area_a + area_b - I). I is widened by
    1e-9 (|x_a| + |y_a| + |x_b| + |y_b| + w_a + h_a + w_b + h_b)^2, far above
    the rounding of the bound, of the clipped corners and of the shoelace sum,
    so no pair whose computed IoU reaches a threshold is bounded below it.
    A pair with a non-finite x, y, w, h or t, or whose bound overflows, gets
    inf: it is never pruned.
    """
    cols = [0, 1, 3, 4, 6]
    finite = np.isfinite(a[:, cols]).all(1) & np.isfinite(b[:, cols]).all(1)
    a, b = (np.where(finite[:, None], r, 0.0) for r in (a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        wa, ha, wb, hb = np.abs(a[:, 3]), np.abs(a[:, 4]), np.abs(b[:, 3]), np.abs(b[:, 4])
        ca, sa, cb, sb = np.cos(a[:, 6]), np.sin(a[:, 6]), np.cos(b[:, 6]), np.sin(b[:, 6])
        # |cos| and |sin| of the heading difference, from each box's own cos and sin
        c, s = np.abs(ca * cb + sa * sb), np.abs(sa * cb - ca * sb)
        dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]

        def overlap(ct, st, w, h, ow, oh):
            """Area shared by a box (w, h; heading cos ct, sin st) and the
            bounding rectangle, in its frame, of the other box (ow, oh)."""
            rx, ry = 0.5 * (c * ow + s * oh), 0.5 * (s * ow + c * oh)
            ox = np.minimum(0.5 * w + rx - np.abs(ct * dx + st * dy), np.minimum(w, 2 * rx))
            oy = np.minimum(0.5 * h + ry - np.abs(ct * dy - st * dx), np.minimum(h, 2 * ry))
            return np.maximum(ox, 0.0) * np.maximum(oy, 0.0)

        span = (np.abs(a[:, 0]) + np.abs(a[:, 1]) + np.abs(b[:, 0]) + np.abs(b[:, 1])
                + wa + ha + wb + hb)
        inter = np.minimum(overlap(ca, sa, wa, ha, wb, hb),
                           overlap(cb, sb, wb, hb, wa, ha)) + 1e-9 * span * span
        union = wa * ha + wb * hb - inter
        ok = finite & np.isfinite(union) & (union > 0)
        return np.where(ok, inter / np.where(ok, union, 1.0), np.inf)


def rotated_iou_bev(a, b) -> float:
    """IoU of two oriented BEV rectangles via convex polygon clipping; 0.0
    when a heading is NaN or infinite. The areas are plain floats, so an
    infinite side times a zero one is NaN without a warning."""
    area_a = float(a.w) * float(a.h)
    area_b = float(b.w) * float(b.h)
    if area_a <= 0 or area_b <= 0:
        return 0.0
    inter = _intersection_area(_corners(a), _corners(b))
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def iou_3d(a, b) -> float:
    """IoU of two ground-aligned cuboids: BEV polygon overlap times vertical
    overlap, over union volume (plain floats, as in ``rotated_iou_bev``)."""
    vol_a = float(a.w) * float(a.h) * float(a.d)
    vol_b = float(b.w) * float(b.h) * float(b.d)
    if vol_a <= 0 or vol_b <= 0:
        return 0.0
    inter_bev = float(_intersection_area(_corners(a), _corners(b)))
    zlo = max(a.z - a.d / 2, b.z - b.d / 2)
    zhi = min(a.z + a.d / 2, b.z + b.d / 2)
    inter = inter_bev * max(0.0, float(zhi - zlo))
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


def score_order(scores) -> np.ndarray:
    """Indices by descending score, equal scores in index order and NaN last:
    the one ranking rule, which NMS, AP pooling and negative mining use."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def rank_detections(dets: list[DetectionBox]) -> list[int]:
    """``score_order`` of the detections' scores, as a list."""
    return score_order([d.score for d in dets]).tolist()


def nms(boxes: list[DetectionBox], iou_threshold: float = 0.1,
        score_threshold: float = 0.1, max_out: int | None = None) -> list[DetectionBox]:
    """Greedy NMS on rotated BEV IoU over boxes in ``rank_detections`` order.

    Two vectorised prefilters pick the pairs that are clipped. ``may_overlap``
    drops pairs whose corner bounds lie apart, and ``iou_upper_bound``, over
    the pairs that remain, drops those bounded below ``iou_threshold``. Both
    are widened past rounding, so a dropped pair's ``rotated_iou_bev`` is below
    the threshold and could not have suppressed: the kept set is the one that
    clipping every pair would give.

    Each candidate's earlier rivals are listed once, by descending bound and
    then by index, so the likeliest suppressor is clipped first. A candidate
    is dropped if any taken rival reaches the threshold, which does not
    depend on the order of the rivals."""
    order = rank_detections(boxes)
    cand = [boxes[i] for i in order if boxes[i].score >= score_threshold]
    rows = box_rows(cand)
    later, earlier = np.nonzero(np.tril(_may_overlap_rows(rows, rows), -1))
    bound = iou_upper_bound(rows[later], rows[earlier])
    close = bound >= iou_threshold
    later, earlier, bound = later[close], earlier[close], bound[close]
    # per later candidate, the highest bound (the likeliest suppressor) first
    by = np.lexsort((earlier, -bound, later))
    rivals: list[list[int]] = [[] for _ in cand]
    for i, k in zip(later[by].tolist(), earlier[by].tolist()):
        rivals[i].append(k)
    taken = [False] * len(cand)
    kept: list[DetectionBox] = []
    for i, box in enumerate(cand):
        if max_out is not None and len(kept) >= max_out:
            break
        if kept and iou_threshold <= 0:
            break                   # IoU >= 0: the first kept box suppresses the rest
        if any(taken[k] and rotated_iou_bev(box, cand[k]) >= iou_threshold
               for k in rivals[i]):
            continue
        taken[i] = True
        kept.append(box)
    return kept


# -- detection header ---------------------------------------------------------

class HeaderOutput:
    """Raw 1x1-conv output of a ``variant`` header, and the one owner of its
    rows: per pixel, one (logit, R offsets) cell run per anchor orientation.
    ``rows`` holds one (1 + R) row per ``make_anchors`` row, scene after
    scene, and ``scores`` the ``logistic`` of each row's logit."""

    def __init__(self, raw: Tensor, variant: str):
        self.raw = raw                  # N x (A * (1+R)) x ny x nx
        self.variant = variant
        self.num_reg = NUM_REG[variant]
        self.rows = raw.transpose((0, 2, 3, 1)).reshape(-1, 1 + self.num_reg)
        self.scores = logistic(self.rows.data[:, 0])
        self._cells = self.rows.reshape(-1)

    def select(self, rows: np.ndarray, n_pos: int) -> tuple[Tensor, Tensor]:
        """The logits of ``rows`` (indices into ``self.rows``) and the R
        offsets of their first ``n_pos``: one ``gather_rows`` node each, called
        through the module so that a tracer patching ``bevfuse.tensor`` sees it."""
        width = 1 + self.num_reg
        first = np.asarray(rows, dtype=np.intp) * width
        return (T.gather_rows(self._cells, first),
                T.gather_rows(self._cells, first[:n_pos, None] + np.arange(1, width)))


class DetectionHeader:
    """Single 1x1 convolution over the final BEV feature map."""

    def __init__(self, in_channels: int, variant: str, rng: np.random.Generator):
        if variant not in NUM_REG:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        out_ch = len(ANCHOR_ORIENTATIONS) * (1 + NUM_REG[variant])
        self.conv = Conv2dLayer(in_channels, out_ch, 1, 1, 0, rng, "header")

    def parameters(self) -> dict[str, Tensor]:
        return self.conv.parameters()

    def forward(self, bev_features: Tensor) -> HeaderOutput:
        return HeaderOutput(self.conv.forward(bev_features), self.variant)


def decode_detections(header: HeaderOutput, anchors: np.ndarray,
                      center_norm: str = "anchor_coord") -> list[DetectionBox]:
    """Scored boxes (pre-NMS), one per anchor row. Regression cells are read
    back through the variant's REG_INDICES; offsets it does not regress are 0."""
    rows = header.rows.data
    if rows.shape[0] != len(anchors):
        raise ValueError(f"{rows.shape[0]} predictions vs {len(anchors)} anchors")
    layout = REG_INDICES[header.variant]
    full = np.zeros((len(rows), 8))
    full[:, layout] = rows[:, 1:]
    boxes = decode_rows(full, anchors, center_norm)
    # the fields a column at a time, which is far cheaper than unpacking each row
    return [DetectionBox(*fields, score=score, height2d=h2d)
            for *fields, score, h2d in zip(*map(list, boxes.T), header.scores.tolist(),
                                           full[:, 7].tolist())]
