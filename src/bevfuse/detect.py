"""Anchors, detection header, box encode/decode, rotated IoU and NMS."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

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
    is_3d: bool = False
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
    wrapping). Columns of ``p`` past the seventh are ignored."""
    norm = _center_normalizers(anchor_rows, center_norm)
    return np.concatenate([anchor_rows[:, :3] + p[:, :3] * norm,
                           anchor_rows[:, 3:6] * np.exp(p[:, 3:6]),
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
    """Corners of the BEV rectangle as float pairs, counter-clockwise."""
    c, s = math.cos(box.t), math.sin(box.t)
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


def _poly_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    # np.dot, not a Python sum: its summation order sets the last bits
    x, y = poly[:, 0], poly[:, 1]
    x_next = np.concatenate((x[1:], x[:1]))      # np.roll(x, -1), without its overhead
    y_next = np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(np.dot(x, y_next) - np.dot(y, x_next))


def _clip_polygon(subject: list, a, b) -> list:
    """Sutherland-Hodgman step: keep the part of ``subject`` left of edge a->b."""
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    sides = [ex * (p[1] - ay) - ey * (p[0] - ax) for p in subject]
    out = []
    for i in range(len(subject)):
        j = i + 1 - len(subject)                    # the next vertex, wrapping
        p, q, side_p, side_q = subject[i], subject[j], sides[i], sides[j]
        if side_p >= 0:
            out.append(p)
        if (side_p > 0) != (side_q > 0) and side_p != side_q:
            frac = side_p / (side_p - side_q)
            out.append((p[0] + frac * (q[0] - p[0]), p[1] + frac * (q[1] - p[1])))
    return out


def _intersection_area(pa: list, pb: list) -> float:
    poly = pa
    for i in range(len(pb)):
        if not poly:
            return 0.0
        poly = _clip_polygon(poly, pb[i], pb[i + 1 - len(pb)])
    return _poly_area(np.array(poly))


def polygon_intersection_area(pa: np.ndarray, pb: np.ndarray) -> float:
    """Area shared by two convex counter-clockwise polygons (k x 2 arrays)."""
    return _intersection_area(np.asarray(pa, dtype=np.float64).tolist(),
                              np.asarray(pb, dtype=np.float64).tolist())


def may_overlap(a, b) -> np.ndarray:
    """bool[len(a), len(b)], False only for pairs whose corners' axis-aligned
    bounds lie apart: their ``rotated_iou_bev`` and ``iou_3d`` are exactly 0.0.

    Half-extents are 0.5 (|cos t| w + |sin t| h) and 0.5 (|sin t| w + |cos t| h).
    The bound is widened by 1e-9 relative to the coordinates and extents, far
    above the rounding of the corners and of the clipping, so a touching pair
    is never pruned. A NaN never prunes: a NaN centre coordinate takes its own
    axis out of the test, a NaN size or angle takes both.
    """
    def fields(boxes):
        f = box_rows(boxes)
        c, s = np.abs(np.cos(f[:, 6])), np.abs(np.sin(f[:, 6]))
        w, h = np.abs(f[:, 3]), np.abs(f[:, 4])
        return f[:, 0], f[:, 1], 0.5 * (c * w + s * h), 0.5 * (s * w + c * h)

    def apart(ca, ra, cb, rb):
        reach = ra[:, None] + rb[None, :]
        slack = 1e-9 * (np.abs(ca)[:, None] + np.abs(cb)[None, :] + reach)
        return np.abs(ca[:, None] - cb[None, :]) - reach > slack

    ax, ay, arx, ary = fields(a)
    bx, by, brx, bry = fields(b)
    sep_x = apart(ax, arx, bx, brx)
    sep_y = apart(ay, ary, by, bry)
    return ~(sep_x | sep_y)


def rotated_iou_bev(a, b) -> float:
    """IoU of two oriented BEV rectangles via convex polygon clipping."""
    area_a = a.w * a.h
    area_b = b.w * b.h
    if area_a <= 0 or area_b <= 0:
        return 0.0
    inter = _intersection_area(_corners(a), _corners(b))
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def iou_3d(a, b) -> float:
    """IoU of two ground-aligned cuboids: BEV polygon overlap times vertical
    overlap, over union volume."""
    vol_a = a.w * a.h * a.d
    vol_b = b.w * b.h * b.d
    if vol_a <= 0 or vol_b <= 0:
        return 0.0
    inter_bev = _intersection_area(_corners(a), _corners(b))
    zlo = max(a.z - a.d / 2, b.z - b.d / 2)
    zhi = min(a.z + a.d / 2, b.z + b.d / 2)
    inter = inter_bev * max(0.0, zhi - zlo)
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


def rank_detections(dets: list[DetectionBox]) -> list[int]:
    """Indices sorted by descending score; equal scores keep index order."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))


def nms(boxes: list[DetectionBox], iou_threshold: float = 0.1,
        score_threshold: float = 0.1, max_out: int | None = None) -> list[DetectionBox]:
    """Greedy NMS on rotated BEV IoU over boxes in ``rank_detections`` order.

    Only pairs inside ``may_overlap`` are clipped; every other pair has IoU
    0.0, which suppresses only when ``iou_threshold <= 0``."""
    order = rank_detections(boxes)
    cand = [boxes[i] for i in order if boxes[i].score >= score_threshold]
    near = may_overlap(cand, cand)
    taken = np.zeros(len(cand), dtype=bool)
    kept: list[DetectionBox] = []
    for i, box in enumerate(cand):
        if max_out is not None and len(kept) >= max_out:
            break
        if kept and iou_threshold <= 0:
            break                   # IoU >= 0: the first kept box suppresses the rest
        rivals = np.flatnonzero(near[i, :i] & taken[:i]).tolist()
        if any(rotated_iou_bev(box, cand[k]) >= iou_threshold for k in rivals):
            continue
        taken[i] = True
        kept.append(box)
    return kept


# -- detection header ---------------------------------------------------------

@dataclass
class HeaderOutput:
    """Raw 1x1-conv output of a ``variant`` header: per pixel, one
    (logit, R regression offsets) cell run per anchor orientation."""

    raw: Tensor                  # (A * (1+R)) x ny x nx
    variant: str

    @property
    def num_reg(self) -> int:
        return NUM_REG[self.variant]

    def flat(self) -> Tensor:
        """One (1 + R) row per ``make_anchors`` row, in the same order."""
        return self.raw.transpose((1, 2, 0)).reshape(-1, 1 + self.num_reg)


class DetectionHeader:
    """Single 1x1 convolution over the final BEV feature map."""

    def __init__(self, in_channels: int, variant: str = "bev",
                 rng: np.random.Generator | None = None, name: str = "header"):
        from .backbone import Conv2dLayer
        if variant not in NUM_REG:
            raise ValueError(f"unknown variant {variant!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.variant = variant
        out_ch = len(ANCHOR_ORIENTATIONS) * (1 + NUM_REG[variant])
        self.conv = Conv2dLayer(in_channels, out_ch, 1, 1, 0, rng, name)

    def parameters(self) -> dict[str, Tensor]:
        return self.conv.parameters()

    def forward(self, bev_features: Tensor) -> HeaderOutput:
        return HeaderOutput(self.conv.forward(bev_features), self.variant)


def decode_detections(header: HeaderOutput, anchors: np.ndarray,
                      center_norm: str = "anchor_coord") -> list[DetectionBox]:
    """Scored boxes (pre-NMS), one per anchor row. Regression cells are read
    back through the variant's REG_INDICES; offsets it does not regress are 0."""
    flat = header.flat().data
    if flat.shape[0] != len(anchors):
        raise ValueError(f"{flat.shape[0]} predictions vs {len(anchors)} anchors")
    layout = REG_INDICES[header.variant]
    full = np.zeros((len(flat), 8))
    full[:, layout] = flat[:, 1:]
    rows = decode_rows(full, anchors, center_norm)
    is_3d = 2 in layout                 # the variant regresses z
    # the fields a column at a time, which is far cheaper than unpacking each row
    return [DetectionBox(*fields, score=score, is_3d=is_3d, height2d=h2d)
            for *fields, score, h2d in zip(*map(list, rows.T),
                                           logistic(flat[:, 0]).tolist(),
                                           full[:, 7].tolist())]
