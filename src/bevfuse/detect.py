"""Anchors, detection header, box encode/decode, rotated IoU and NMS."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .geometry import BevGrid
from .tensor import Tensor

# regression channel layouts; encode/decode always works in the full
# (x, y, z, w, h, d, t) order and variants select a subset
REG_INDICES = {
    "bev": (0, 1, 3, 4, 6),            # z and d terms removed
    "3d": (0, 1, 2, 3, 4, 5, 6),
    "kitti3d": (0, 1, 2, 3, 4, 5, 6),  # + one extra raw channel for 2D box height
}
NUM_REG = {"bev": 5, "3d": 7, "kitti3d": 8}
ANCHOR_ORIENTATIONS = (0.0, math.pi / 2)

# guard for the literal center encoding (k - a_k) / a_k when a_k ~ 0
CENTER_EPS = 1e-6


@dataclass(frozen=True)
class Anchor:
    """Fixed-size prior box; orientation is one of 0 or pi/2."""

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


def make_anchors(grid: BevGrid, size: tuple[float, float, float],
                 z: float) -> list[Anchor]:
    """Two fixed-size anchors (orientations 0 and pi/2) at every pixel of the
    output raster, ordered row-major by (iy, ix, orientation)."""
    w, h, d = size
    centers = grid.pixel_centers().reshape(-1, 2)
    return [Anchor(cx, cy, z, w, h, d, t)
            for cx, cy in centers for t in ANCHOR_ORIENTATIONS]


# -- target encoding ----------------------------------------------------------

def _center_normalizers(anchor: Anchor, center_norm: str) -> np.ndarray:
    if center_norm == "anchor_coord":
        coords = np.array([anchor.x, anchor.y, anchor.z])
        guard = np.where(np.abs(coords) > CENTER_EPS, coords,
                         np.where(coords >= 0, CENTER_EPS, -CENTER_EPS))
        return guard
    if center_norm == "diagonal":
        diag = math.sqrt(anchor.w ** 2 + anchor.h ** 2 + anchor.d ** 2)
        return np.array([diag, diag, diag])
    raise ValueError(f"unknown center_norm {center_norm!r}")


def encode_targets(gt: DetectionBox, anchor: Anchor,
                   center_norm: str = "anchor_coord",
                   wrap_orientation: bool = False) -> np.ndarray:
    """Offsets (p_x, p_y, p_z, p_w, p_h, p_d, p_t) of a box w.r.t. an anchor.

    Centers: (k - a_k) / a_k with the anchor coordinate as normalizer (the
    printed form; ``diagonal`` substitutes the anchor diagonal length).
    Sizes: log(k / a_k). Orientation: raw difference, optionally wrapped to
    (-pi/2, pi/2].
    """
    norm = _center_normalizers(anchor, center_norm)
    p_center = (np.array([gt.x, gt.y, gt.z]) - np.array([anchor.x, anchor.y, anchor.z])) / norm
    p_size = np.log(np.array([gt.w, gt.h, gt.d]) /
                    np.array([anchor.w, anchor.h, anchor.d]))
    p_t = gt.t - anchor.t
    if wrap_orientation:
        p_t = (p_t + math.pi / 2) % math.pi - math.pi / 2
        if p_t == -math.pi / 2:
            p_t = math.pi / 2
    return np.concatenate([p_center, p_size, [p_t]])


def decode_targets(p: np.ndarray, anchor: Anchor,
                   center_norm: str = "anchor_coord") -> DetectionBox:
    """Exact inverse of encode_targets (without orientation wrapping)."""
    p = np.asarray(p, dtype=np.float64)
    norm = _center_normalizers(anchor, center_norm)
    cx, cy, cz = np.array([anchor.x, anchor.y, anchor.z]) + p[:3] * norm
    w, h, d = np.array([anchor.w, anchor.h, anchor.d]) * np.exp(p[3:6])
    return DetectionBox(cx, cy, cz, w, h, d, anchor.t + p[6])


# -- rotated IoU --------------------------------------------------------------

def box_corners_bev(box) -> np.ndarray:
    """4 x 2 corner coordinates of the (possibly rotated) BEV rectangle,
    counter-clockwise."""
    c, s = math.cos(box.t), math.sin(box.t)
    u = np.array([c, s]) * box.w / 2.0       # along heading
    v = np.array([-s, c]) * box.h / 2.0      # lateral
    center = np.array([box.x, box.y])
    return np.array([center + u + v, center - u + v, center - u - v, center + u - v])


def _poly_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clip_polygon(subject: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman step: keep the part of ``subject`` left of edge a->b."""
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


def polygon_intersection_area(pa: np.ndarray, pb: np.ndarray) -> float:
    poly = pa
    nb = len(pb)
    for i in range(nb):
        if len(poly) == 0:
            return 0.0
        poly = _clip_polygon(poly, pb[i], pb[(i + 1) % nb])
    return _poly_area(poly)


def rotated_iou_bev(a, b) -> float:
    """IoU of two oriented BEV rectangles via convex polygon clipping."""
    area_a = a.w * a.h
    area_b = b.w * b.h
    if area_a <= 0 or area_b <= 0:
        return 0.0
    inter = polygon_intersection_area(box_corners_bev(a), box_corners_bev(b))
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def iou_3d(a, b) -> float:
    """IoU of two ground-aligned cuboids: BEV polygon overlap times vertical
    overlap, over union volume."""
    vol_a = a.w * a.h * a.d
    vol_b = b.w * b.h * b.d
    if vol_a <= 0 or vol_b <= 0:
        return 0.0
    inter_bev = polygon_intersection_area(box_corners_bev(a), box_corners_bev(b))
    zlo = max(a.z - a.d / 2, b.z - b.d / 2)
    zhi = min(a.z + a.d / 2, b.z + b.d / 2)
    inter = inter_bev * max(0.0, zhi - zlo)
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


def nms(boxes: list[DetectionBox], iou_threshold: float = 0.1,
        score_threshold: float = 0.1, max_out: int | None = None) -> list[DetectionBox]:
    """Greedy NMS on rotated BEV IoU; ties broken by (score desc, index asc)."""
    order = sorted(range(len(boxes)),
                   key=lambda i: (-boxes[i].score, i))
    kept: list[DetectionBox] = []
    for i in order:
        if boxes[i].score < score_threshold:
            continue
        if any(rotated_iou_bev(boxes[i], kb) >= iou_threshold for kb in kept):
            continue
        kept.append(boxes[i])
        if max_out is not None and len(kept) >= max_out:
            break
    return kept


# -- detection header ---------------------------------------------------------

@dataclass
class HeaderOutput:
    """Raw 1x1-conv output reshaped to (ny, nx, num_anchors, 1 + R).

    Channel 0 per anchor is the class logit; the rest are regression offsets.
    """

    raw: Tensor                  # (A * (1+R)) x ny x nx
    num_anchors: int
    num_reg: int

    @property
    def ny(self):
        return self.raw.shape[1]

    @property
    def nx(self):
        return self.raw.shape[2]

    def flat(self) -> Tensor:
        """(ny * nx * num_anchors) x (1 + R), anchor-major within a pixel."""
        a, r = self.num_anchors, self.num_reg
        return self.raw.transpose((1, 2, 0)).reshape(self.ny * self.nx * a, 1 + r)


class DetectionHeader:
    """Single 1x1 convolution over the final BEV feature map."""

    def __init__(self, in_channels: int, variant: str = "bev", num_anchors: int = 2,
                 rng: np.random.Generator | None = None, name: str = "header"):
        from .fusion import xavier_uniform
        if variant not in NUM_REG:
            raise ValueError(f"unknown variant {variant!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.variant = variant
        self.num_anchors = num_anchors
        self.num_reg = NUM_REG[variant]
        out_ch = num_anchors * (1 + self.num_reg)
        self.name = name
        self.weight = Tensor(
            xavier_uniform(rng, in_channels, out_ch, (out_ch, in_channels, 1, 1)),
            requires_grad=True)
        self.bias = Tensor.zeros((out_ch,), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def forward(self, bev_features: Tensor) -> HeaderOutput:
        out = T.add_channel_bias(T.conv2d(bev_features, self.weight), self.bias)
        return HeaderOutput(out, self.num_anchors, self.num_reg)


def decode_detections(header: HeaderOutput, anchors: list[Anchor],
                      center_norm: str = "anchor_coord",
                      cls: int = 0) -> list[DetectionBox]:
    """Turn raw header output into scored boxes (pre-NMS)."""
    flat = header.flat().data
    if flat.shape[0] != len(anchors):
        raise ValueError(f"{flat.shape[0]} predictions vs {len(anchors)} anchors")
    boxes = []
    for row, anchor in zip(flat, anchors):
        score = float(1.0 / (1.0 + np.exp(-np.clip(row[0], -500, 500))))
        p = np.zeros(7)
        if header.num_reg == 5:
            p[[0, 1, 3, 4, 6]] = row[1:6]
        else:
            p[:] = row[1:8]
        box = decode_targets(p, anchor, center_norm=center_norm)
        box.score = score
        box.cls = cls
        box.is_3d = header.num_reg >= 7
        if header.num_reg == 8:
            box.height2d = float(row[8])
        boxes.append(box)
    return boxes
