"""Synthetic scene generation, the LIDAR-space augmentation recipe, and
KITTI-format ingestion/serialization."""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .detect import DetectionBox, rotated_iou_bev
from .geometry import BevGrid, CalibratedCamera, PointCloud, project_points
from .tensor import InputError, Tensor

GENERATOR_VERSION = 1

CLASS_NAMES = ["Car", "Pedestrian", "Cyclist", "Van", "DontCare", "Misc"]
IGNORED_CLASSES = ("Van", "DontCare")


class GenerationError(InputError):
    pass


class KittiParseError(InputError):
    pass


@dataclass
class SceneSample:
    """One training example: cloud, precomputed image features, calibration
    and ground truth."""

    cloud: PointCloud
    image_feature_input: Tensor
    cam: CalibratedCamera
    gt_boxes: list[DetectionBox]
    frame_id: str = "synthetic"


@dataclass
class SceneGenConfig:
    x_range: tuple[float, float] = (4.0, 28.0)
    y_range: tuple[float, float] = (-12.0, 12.0)
    object_count: tuple[int, int] = (2, 4)
    base_size: tuple[float, float, float] = (4.0, 2.0, 1.6)
    size_jitter: float = 0.1
    ground_points: int = 400
    surface_points_ref: int = 60     # on-object points at reference distance
    reference_distance: float = 8.0
    noise_sigma: float = 0.02
    ground_layout: str = "random"    # "random" census-like | "grid" regular lattice
    occlusion_fraction: float = 0.0  # fraction of objects left nearly LIDAR-blind
    image_shape: tuple[int, int, int] = (4, 24, 48)   # C x H x W; channel 0 = presence
    focal: tuple[float, float] = (10.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("x_range", "y_range"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo < hi < math.inf:      # NaN fails this too
                raise ValueError(f"{name} must be finite with lo < hi, got {[lo, hi]}")
        if self.x_range[0] <= 0:
            raise ValueError("x_range must start in front of the camera")
        if not 0 <= self.object_count[0] <= self.object_count[1]:
            raise ValueError(f"invalid object_count range {list(self.object_count)}")
        if self.ground_points < 0 or self.surface_points_ref < 0:
            raise ValueError("ground_points and surface_points_ref must be >= 0")
        if not 0 <= self.noise_sigma < math.inf:        # NaN fails this too
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if min(self.image_shape) < 1:
            raise ValueError(f"image extents must be >= 1, got {list(self.image_shape)}")
        if not all(0 < f < math.inf for f in self.focal):
            raise ValueError(f"focal lengths must be finite and > 0, got {list(self.focal)}")
        if self.ground_layout not in ("random", "grid"):
            raise ValueError(f"unknown ground_layout {self.ground_layout!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AugmentationConfig:
    """Joint cloud/box/calibration augmentation; never applied at eval time."""

    scale_xy: tuple[float, float] = (0.9, 1.1)
    scale_z: tuple[float, float] = (0.9, 1.1)
    translate_xy: float = 5.0
    translate_z: float = 1.0
    rotate_z_deg: float = 5.0
    image_scale: tuple[float, float] = (0.9, 1.1)
    image_translate_px: float = 50.0

    def __post_init__(self):
        for name in ("scale_xy", "scale_z", "image_scale"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:             # NaN fails this too
                raise ValueError(f"{name} must be finite with 0 < lo <= hi, got {[lo, hi]}")
        for name in ("translate_xy", "translate_z", "rotate_z_deg", "image_translate_px"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def make_forward_camera(image_size: tuple[int, int],
                        focal: tuple[float, float]) -> CalibratedCamera:
    """Pinhole camera at the LIDAR origin looking along +x.

    LIDAR frame: x forward, y left, z up. Camera frame: z forward (depth = x),
    u grows to the right (-y), v grows downward (-z).
    """
    h, w = image_size
    fx, fy = focal
    k = np.array([[fx, 0.0, (w - 1) / 2.0],
                  [0.0, fy, (h - 1) / 2.0],
                  [0.0, 0.0, 1.0]])
    extrinsic = np.array([[0.0, -1.0, 0.0, 0.0],
                          [0.0, 0.0, -1.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0]])
    return CalibratedCamera(k @ extrinsic, image_size)


# the four vertical faces and the top of a unit cuboid: each fixes one local
# coordinate; the zeros are the two free ones, which take (u, v) in axis order
_BOX_FACES = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.5, 0.0],
                       [0.0, -0.5, 0.0], [0.0, 0.0, 0.5]])


def _box_surface_points(box: DetectionBox, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample points on the vertical faces and top of a cuboid."""
    faces = rng.integers(0, 5, size=n)
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    local = _BOX_FACES[faces]
    local[local == 0.0] = np.column_stack([u, v]).ravel()
    local *= np.array([box.w, box.h, box.d])
    c, s = math.cos(box.t), math.sin(box.t)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + np.array([box.x, box.y, box.z])


def _paint_presence(channel: np.ndarray, box: DetectionBox, cam: CalibratedCamera):
    """Set the projected footprint of a box to 1 in an H x W channel."""
    from .detect import box_corners_bev
    corners2d = box_corners_bev(box)
    pts = []
    for cx, cy in corners2d:
        for z in (box.z - box.d / 2, box.z + box.d / 2):
            pts.append((cx, cy, z))
    uv, valid = project_points(PointCloud(np.array(pts)), cam)
    if not valid.any():
        return
    h, w = cam.image_size
    u0 = int(np.clip(np.floor(uv[valid, 0].min()), 0, w - 1))
    u1 = int(np.clip(np.ceil(uv[valid, 0].max()), 0, w - 1))
    v0 = int(np.clip(np.floor(uv[valid, 1].min()), 0, h - 1))
    v1 = int(np.clip(np.ceil(uv[valid, 1].max()), 0, h - 1))
    channel[v0:v1 + 1, u0:u1 + 1] = 1.0


def generate_scene(cfg: SceneGenConfig, seed: int | None = None,
                   frame_id: str | None = None) -> SceneSample:
    """Deterministic synthetic scene: BEV-disjoint boxes, LIDAR returns whose
    on-object density falls off with distance, and an image feature map whose
    first channel marks object footprints."""
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    c, h, w = cfg.image_shape
    cam = make_forward_camera((h, w), cfg.focal)

    n_obj = int(rng.integers(cfg.object_count[0], cfg.object_count[1] + 1))
    boxes: list[DetectionBox] = []
    for _ in range(n_obj):
        placed = False
        for _attempt in range(200):
            bw, bh, bd = (np.array(cfg.base_size) *
                          rng.uniform(1 - cfg.size_jitter, 1 + cfg.size_jitter, 3))
            t = float(rng.choice([0.0, math.pi / 2]) + rng.uniform(-0.2, 0.2))
            margin = math.hypot(bw, bh) / 2
            x_lo, x_hi = cfg.x_range[0] + margin, cfg.x_range[1] - margin
            y_lo, y_hi = cfg.y_range[0] + margin, cfg.y_range[1] - margin
            if x_lo > x_hi or y_lo > y_hi:
                continue                    # the footprint does not fit the ranges
            x, y = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)
            cand = DetectionBox(x, y, bd / 2, bw, bh, bd, t)
            _, center_visible = project_points(
                PointCloud(np.array([[x, y, bd / 2]])), cam)
            if not center_visible[0]:
                continue
            if all(rotated_iou_bev(cand, b) == 0.0 for b in boxes):
                boxes.append(cand)
                placed = True
                break
        if not placed:
            raise GenerationError(f"could not place object {len(boxes)} after retries")

    n_sparse = int(round(cfg.occlusion_fraction * len(boxes)))
    sparse = set(rng.permutation(len(boxes))[:n_sparse]) if boxes else set()

    clouds = []
    if cfg.ground_points:
        if cfg.ground_layout == "grid":
            # regular lattice: a scene-independent scaffold with no pattern
            # a detector could key on
            side = int(math.ceil(math.sqrt(cfg.ground_points)))
            gx, gy = np.meshgrid(
                np.linspace(cfg.x_range[0], cfg.x_range[1], side),
                np.linspace(cfg.y_range[0], cfg.y_range[1], side))
            gx, gy = gx.ravel()[:cfg.ground_points], gy.ravel()[:cfg.ground_points]
        else:
            # log-uniform x gives the 1/x census falloff of real returns
            gx = np.exp(rng.uniform(np.log(cfg.x_range[0]), np.log(cfg.x_range[1]),
                                    cfg.ground_points))
            gy = rng.uniform(cfg.y_range[0], cfg.y_range[1], cfg.ground_points)
        gz = np.zeros(gx.shape)
        clouds.append(np.stack([gx, gy, gz], axis=1))
    for bi, box in enumerate(boxes):
        if bi in sparse:
            n_pts = 0                           # LIDAR-blind: image-only evidence
        else:
            n_pts = max(3, int(round(cfg.surface_points_ref *
                                     cfg.reference_distance / box.x)))
        clouds.append(_box_surface_points(box, n_pts, rng))
    points = np.concatenate(clouds, axis=0) if clouds else np.zeros((0, 3))
    points += rng.normal(0.0, cfg.noise_sigma, points.shape)
    cloud = PointCloud(points)

    features = rng.normal(0.0, 0.1, (c, h, w))
    features[0] = 0.0
    for box in boxes:
        _paint_presence(features[0], box, cam)
    return SceneSample(cloud, Tensor(features), cam, boxes,
                       frame_id=frame_id or f"syn{seed:06d}")


def generate_dataset(cfg: SceneGenConfig, n_scenes: int) -> list[SceneSample]:
    return [generate_scene(cfg, seed=cfg.seed + i, frame_id=f"syn{cfg.seed + i:06d}")
            for i in range(n_scenes)]


# -- augmentation ---------------------------------------------------------------

def augment(sample: SceneSample, cfg: AugmentationConfig,
            seed: int | list[int]) -> SceneSample:
    """Random similarity transform of the scene with the calibration updated so
    projections stay consistent, plus an image-space scale/translation."""
    rng = np.random.default_rng(seed)
    sxy = rng.uniform(*cfg.scale_xy)
    sz = rng.uniform(*cfg.scale_z)
    tx, ty = rng.uniform(-cfg.translate_xy, cfg.translate_xy, 2)
    tz = rng.uniform(-cfg.translate_z, cfg.translate_z)
    theta = math.radians(rng.uniform(-cfg.rotate_z_deg, cfg.rotate_z_deg))
    img_s = rng.uniform(*cfg.image_scale)
    img_tu, img_tv = rng.uniform(-cfg.image_translate_px, cfg.image_translate_px, 2)

    cth, sth = math.cos(theta), math.sin(theta)
    lin = np.diag([sxy, sxy, sz]) @ np.array([[cth, -sth, 0.0],
                                              [sth, cth, 0.0],
                                              [0.0, 0.0, 1.0]])
    shift = np.array([tx, ty, tz])
    pts = sample.cloud.points @ lin.T + shift
    boxes = []
    for b in sample.gt_boxes:
        center = lin @ np.array([b.x, b.y, b.z]) + shift
        boxes.append(replace(b, x=center[0], y=center[1], z=center[2],
                             w=b.w * sxy, h=b.h * sxy, d=b.d * sz, t=b.t + theta))

    # world transform A (4x4); P' = B P A^-1 keeps projections consistent with
    # the image-space affine B (scale about the image center plus translation)
    a_inv = np.eye(4)
    a_inv[:3, :3] = np.linalg.inv(lin)
    a_inv[:3, 3] = -a_inv[:3, :3] @ shift
    h, w = sample.cam.image_size
    cu, cv = (w - 1) / 2.0, (h - 1) / 2.0
    b_aff = np.array([[img_s, 0.0, (1 - img_s) * cu + img_tu],
                      [0.0, img_s, (1 - img_s) * cv + img_tv],
                      [0.0, 0.0, 1.0]])
    cam = CalibratedCamera(b_aff @ sample.cam.projection @ a_inv, sample.cam.image_size)

    # resample the feature map through the inverse image affine so the features
    # move together with the projections
    fm = sample.image_feature_input
    vs, us = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    src_u = (us - ((1 - img_s) * cu + img_tu)) / img_s
    src_v = (vs - ((1 - img_s) * cv + img_tv)) / img_s
    warped = T.bilinear_sample(fm, np.stack([src_u.ravel(), src_v.ravel()], axis=1))
    return SceneSample(PointCloud(pts), Tensor(warped.data.T.reshape(fm.shape)), cam,
                       boxes, frame_id=sample.frame_id)


# -- KITTI format -----------------------------------------------------------------
#
# velodyne: consecutive little-endian f32 (x, y, z, intensity) records, no header.
# calib:    lines "KEY: v1 v2 ...": P2 (12 values), R0_rect (9), Tr_velo_to_cam (12).
# labels:   15 whitespace fields (type, truncated, occluded, alpha, bbox x4,
#           dimensions h w l, location x y z, rotation_y) plus optional score.
#
# Camera-frame labels (y down, location at the bottom face center, rotation_y
# about the camera y axis) convert to LIDAR-frame center boxes via the inverse
# rectification/extrinsic chain; yaw maps as t = -rotation_y - pi/2.

def load_kitti_velodyne(path) -> PointCloud:
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 4:
        raise KittiParseError(f"{path}: byte length is not a multiple of 16")
    pts = raw.reshape(-1, 4).astype(np.float64)
    return PointCloud(pts[:, :3], intensity=pts[:, 3])


def _numbered_lines(path) -> list[tuple[int, str]]:
    """The lines of a KITTI text file, numbered from 1."""
    try:
        with open(path, encoding="utf-8") as f:
            return list(enumerate(f, start=1))
    except UnicodeDecodeError as e:
        raise KittiParseError(f"{path}: not UTF-8 text: {e}") from None


def _read_kitti_calib(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(projection P2 @ R0_rect @ Tr_velo_to_cam, R0_rect, Tr_velo_to_cam),
    the last two padded to 4 x 4."""
    values = {}
    for lineno, line in _numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        if ":" not in line:
            raise KittiParseError(f"{path}:{lineno}: expected 'KEY: values'")
        key, rest = line.split(":", 1)
        try:
            values[key.strip()] = np.array([float(v) for v in rest.split()])
        except ValueError as e:
            raise KittiParseError(f"{path}:{lineno}: {e}") from None
    try:
        p2 = values["P2"].reshape(3, 4)
        r0 = values["R0_rect"].reshape(3, 3)
        tr = values["Tr_velo_to_cam"].reshape(3, 4)
    except KeyError as e:
        raise KittiParseError(f"{path}: missing calibration key {e}") from None
    except ValueError as e:
        raise KittiParseError(f"{path}: {e}") from None
    r0_4 = np.eye(4)
    r0_4[:3, :3] = r0
    tr_4 = np.eye(4)
    tr_4[:3, :4] = tr
    return p2 @ r0_4 @ tr_4, r0_4, tr_4


def load_kitti_calib(path, image_size: tuple[int, int] = (370, 1224)) -> CalibratedCamera:
    return CalibratedCamera(_read_kitti_calib(path)[0], image_size)


def _kitti_chain(calib_path) -> tuple[np.ndarray, np.ndarray]:
    """(R0_rect, Tr_velo_to_cam) as 4 x 4; their product maps LIDAR to the
    rectified camera frame."""
    return _read_kitti_calib(calib_path)[1:]


def parse_kitti_label_line(line: str, rect_to_velo: np.ndarray,
                           path: str = "<label>", lineno: int = 0) -> DetectionBox:
    fields = line.split()
    if len(fields) not in (15, 16):
        raise KittiParseError(f"{path}:{lineno}: expected 15 or 16 fields, "
                              f"got {len(fields)}")
    name = fields[0]
    try:
        vals = [float(v) for v in fields[1:]]
    except ValueError as e:
        raise KittiParseError(f"{path}:{lineno}: {e}") from None
    hgt, wid, length = vals[7], vals[8], vals[9]
    loc_cam = np.array([vals[10], vals[11], vals[12], 1.0])
    ry = vals[13]
    score = vals[14] if len(fields) == 16 else 1.0
    center = rect_to_velo @ loc_cam
    cls = CLASS_NAMES.index(name) if name in CLASS_NAMES else len(CLASS_NAMES)
    return DetectionBox(
        x=center[0], y=center[1], z=center[2] + hgt / 2,
        w=length, h=wid, d=hgt, t=-ry - math.pi / 2,
        score=score, cls=cls, is_3d=True,
        ignored=name in IGNORED_CLASSES, height2d=vals[6] - vals[4])


def load_kitti_labels(path, rect_to_velo: np.ndarray) -> list[DetectionBox]:
    return [parse_kitti_label_line(line, rect_to_velo, str(path), lineno)
            for lineno, line in _numbered_lines(path) if line.strip()]


def load_kitti_frame(velodyne_path, calib_path, label_path,
                     image_size: tuple[int, int] = (370, 1224)) -> SceneSample:
    """Assemble a SceneSample from KITTI-format files. The image feature input
    is a zero map (no image decoding at desk scale)."""
    cloud = load_kitti_velodyne(velodyne_path)
    projection, r0_4, tr_4 = _read_kitti_calib(calib_path)
    cam = CalibratedCamera(projection, image_size)
    boxes = load_kitti_labels(label_path, np.linalg.inv(r0_4 @ tr_4))
    h, w = image_size
    feat = Tensor(np.zeros((1, h, w)))
    return SceneSample(cloud, feat, cam, boxes,
                       frame_id=os.path.splitext(os.path.basename(str(velodyne_path)))[0])


def write_kitti_labels(boxes: list[DetectionBox], path,
                       velo_to_rect: np.ndarray | None = None,
                       with_score: bool = True):
    """KITTI 15-field label lines (plus trailing score) from LIDAR-frame boxes."""
    if velo_to_rect is None:
        velo_to_rect = np.eye(4)
    with open(path, "w") as f:
        for b in boxes:
            name = CLASS_NAMES[b.cls] if 0 <= b.cls < len(CLASS_NAMES) else "Misc"
            bottom = np.array([b.x, b.y, b.z - b.d / 2, 1.0])
            loc = velo_to_rect @ bottom
            ry = -b.t - math.pi / 2
            fields = [name, "0.00", "0", "-10",
                      "0.00", "0.00", "0.00", f"{b.height2d:.2f}",
                      f"{b.d:.2f}", f"{b.h:.2f}", f"{b.w:.2f}",
                      f"{loc[0]:.2f}", f"{loc[1]:.2f}", f"{loc[2]:.2f}",
                      f"{ry:.2f}"]
            if with_score:
                fields.append(f"{b.score:.4f}")
            f.write(" ".join(fields) + "\n")


# -- synthetic dataset manifest ---------------------------------------------------

def save_dataset(samples: list[SceneSample], directory, seeds: list[int] | None = None):
    """Directory of per-frame .npz records plus an index.json manifest."""
    os.makedirs(directory, exist_ok=True)
    frames = []
    for s in samples:
        box_arr = np.array([[b.x, b.y, b.z, b.w, b.h, b.d, b.t, b.score,
                             b.cls, float(b.ignored)] for b in s.gt_boxes]).reshape(-1, 10)
        np.savez(os.path.join(directory, f"{s.frame_id}.npz"),
                 points=s.cloud.points,
                 intensity=(s.cloud.intensity if s.cloud.intensity is not None
                            else np.zeros(len(s.cloud))),
                 image_features=s.image_feature_input.data,
                 projection=s.cam.projection,
                 image_size=np.array(s.cam.image_size),
                 boxes=box_arr)
        frames.append(s.frame_id)
    with open(os.path.join(directory, "index.json"), "w") as f:
        json.dump({"generator_version": GENERATOR_VERSION, "frames": frames,
                   "seeds": seeds or []}, f, indent=2)


# what np.load and the record fields raise on a damaged or foreign .npz file
_RECORD_ERRORS = (OSError, EOFError, KeyError, IndexError, TypeError, ValueError,
                  NotImplementedError, zipfile.BadZipFile)


def load_dataset(directory) -> list[SceneSample]:
    """Scenes written by ``save_dataset``; a malformed index.json or scene
    record raises InputError."""
    path = os.path.join(directory, "index.json")
    with open(path) as f:
        try:
            frames = json.load(f)["frames"]
        except (ValueError, KeyError, TypeError) as e:
            raise InputError(f"{path}: not a dataset index: {e!r}") from None
    return [_load_record(os.path.join(directory, f"{fid}.npz"), fid) for fid in frames]


def _load_record(path, fid) -> SceneSample:
    try:
        with np.load(path) as z:
            boxes = [DetectionBox(x=r[0], y=r[1], z=r[2], w=r[3], h=r[4], d=r[5],
                                  t=r[6], score=r[7], cls=int(r[8]), ignored=bool(r[9]))
                     for r in z["boxes"]]
            cam = CalibratedCamera(z["projection"],
                                   tuple(int(v) for v in z["image_size"]))
            return SceneSample(PointCloud(z["points"], intensity=z["intensity"]),
                               Tensor(z["image_features"]), cam, boxes, frame_id=fid)
    except _RECORD_ERRORS as e:
        raise InputError(f"{path}: corrupt scene record: {e!r}") from None
