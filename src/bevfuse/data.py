"""Synthetic scene generation, the LIDAR-space augmentation recipe, and
KITTI-format ingestion/serialization."""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, replace
from typing import Annotated, Literal

import numpy as np

from .detect import DetectionBox, box_corners_bev, rotated_iou_bev
from .domains import (Checked, Finite, Increasing, NonDecreasing, NonNeg, Pos, Unit,
                      UnitOpen, Within)
from .geometry import CalibratedCamera, PointCloud, project_points
from .tensor import InputError, atomic_write, sample_maps

# the dataset record layout: version 1 records hold 10 box columns; version 2
# added height2d and a 0/1 3D flag (12 columns); version 3 dropped the flag
# (11 columns), since the configured variant, not each box, owns 3D-ness;
# version 4 dropped the image_size array: the camera takes the features' H x W
GENERATOR_VERSION = 4

# (height, width) of a KITTI frame's camera image
KITTI_IMAGE_SIZE = (370, 1224)

CLASS_NAMES = ["Car", "Pedestrian", "Cyclist", "Van", "DontCare", "Misc"]
IGNORED_CLASSES = ("Van", "DontCare")

# |x|, |y|, |z|, |w|, |h|, |d|, |t| and |height2d| of a loaded box stay within
# this: far past any sensor's range, where rotated_iou_bev still keeps its digits.
# It bounds each augmentation magnitude too, so ``augment`` stays finite
BOX_BOUND = 1e4


class GenerationError(InputError):
    pass


class KittiParseError(InputError):
    pass


@dataclass
class SceneSample:
    """One training example: cloud, precomputed image features, calibration
    and ground truth."""

    cloud: PointCloud
    image_feature_input: np.ndarray          # C x H x W
    cam: CalibratedCamera
    gt_boxes: list[DetectionBox]
    frame_id: str = "synthetic"


@dataclass
class SceneGenConfig(Checked):
    x_range: Annotated[tuple[float, float], Finite, Pos, Increasing] = (4.0, 28.0)
    y_range: Annotated[tuple[float, float], Finite, Increasing] = (-12.0, 12.0)
    object_count: Annotated[tuple[int, int], NonNeg, NonDecreasing] = (2, 4)
    base_size: Annotated[tuple[float, float, float], Finite, Pos] = (4.0, 2.0, 1.6)
    size_jitter: Annotated[float, UnitOpen] = 0.1
    ground_points: Annotated[int, NonNeg] = 400
    surface_points_ref: Annotated[int, NonNeg] = 60  # on-object points at reference distance
    reference_distance: Annotated[float, Finite, Pos] = 8.0
    noise_sigma: Annotated[float, Finite, NonNeg] = 0.02
    ground_layout: Literal["random", "grid"] = "random"  # census-like | regular lattice
    occlusion_fraction: Annotated[float, Unit] = 0.0  # share of objects left nearly LIDAR-blind
    image_shape: Annotated[tuple[int, int, int], Pos] = (4, 24, 48)  # C x H x W; 0 = presence
    focal: Annotated[tuple[float, float], Finite, Pos] = (10.0, 10.0)
    seed: Annotated[int, NonNeg] = 0


# a scale factor and its inverse are both within BOX_BOUND
_SCALE = Within(1 / BOX_BOUND, BOX_BOUND)


@dataclass
class AugmentationConfig(Checked):
    """Joint cloud/box/calibration augmentation; never applied at eval time."""

    scale_xy: Annotated[tuple[float, float], _SCALE, NonDecreasing] = (0.9, 1.1)
    scale_z: Annotated[tuple[float, float], _SCALE, NonDecreasing] = (0.9, 1.1)
    translate_xy: Annotated[float, Within(0, BOX_BOUND)] = 5.0
    translate_z: Annotated[float, Within(0, BOX_BOUND)] = 1.0
    rotate_z_deg: Annotated[float, Within(0, 180)] = 5.0
    image_scale: Annotated[tuple[float, float], _SCALE, NonDecreasing] = (0.9, 1.1)
    image_translate_px: Annotated[float, Within(0, BOX_BOUND)] = 4.0


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


def generate_scene(cfg: SceneGenConfig, seed: int | None = None) -> SceneSample:
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
            n_pts = cfg.surface_points_ref * cfg.reference_distance / box.x
            if not math.isfinite(n_pts):
                raise GenerationError(f"object {bi} gets {n_pts} surface points")
            n_pts = max(3, int(round(n_pts)))
        clouds.append(_box_surface_points(box, n_pts, rng))
    points = np.concatenate(clouds, axis=0) if clouds else np.zeros((0, 3))
    points += rng.normal(0.0, cfg.noise_sigma, points.shape)
    cloud = PointCloud(points)

    features = rng.normal(0.0, 0.1, (c, h, w))
    features[0] = 0.0
    for box in boxes:
        _paint_presence(features[0], box, cam)
    return SceneSample(cloud, features, cam, boxes, frame_id=f"syn{seed:06d}")


def generate_dataset(cfg: SceneGenConfig, n_scenes: int) -> list[SceneSample]:
    return [generate_scene(cfg, seed=cfg.seed + i) for i in range(n_scenes)]


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
    warped = sample_maps(fm[None], np.stack([src_u.ravel(), src_v.ravel()], axis=1))[0]
    return SceneSample(PointCloud(pts, sample.cloud.intensity), warped.T.reshape(fm.shape),
                       cam, boxes, frame_id=sample.frame_id)


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


def load_kitti_calib(path) -> CalibratedCamera:
    return CalibratedCamera(_read_kitti_calib(path)[0], KITTI_IMAGE_SIZE)


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
    if not all(map(math.isfinite, vals)):
        raise KittiParseError(f"{path}:{lineno}: a numeric field is NaN or infinite")
    hgt, wid, length = vals[7], vals[8], vals[9]
    loc_cam = np.array([vals[10], vals[11], vals[12], 1.0])
    ry = vals[13]
    score = vals[14] if len(fields) == 16 else 1.0
    center = rect_to_velo @ loc_cam
    # a class outside CLASS_NAMES (Truck, Tram, ...) is Misc, as it is written
    cls = CLASS_NAMES.index(name if name in CLASS_NAMES else "Misc")
    return DetectionBox(
        x=center[0], y=center[1], z=center[2] + hgt / 2,
        w=length, h=wid, d=hgt, t=-ry - math.pi / 2,
        score=score, cls=cls,
        ignored=name in IGNORED_CLASSES, height2d=vals[6] - vals[4])


def load_kitti_labels(path, rect_to_velo: np.ndarray) -> list[DetectionBox]:
    """The boxes of a label file; one that ``_check_box_rows`` rejects raises."""
    boxes = [parse_kitti_label_line(line, rect_to_velo, str(path), lineno)
             for lineno, line in _numbered_lines(path) if line.strip()]
    try:
        _check_box_rows(_box_records(boxes))
    except ValueError as e:
        raise KittiParseError(f"{path}: {e}") from None
    return boxes


def load_kitti_frame(velodyne_path, calib_path, label_path) -> SceneSample:
    """Assemble a SceneSample from KITTI-format files. The image feature input
    is a zero map (no image decoding at desk scale)."""
    cloud = load_kitti_velodyne(velodyne_path)
    projection, r0_4, tr_4 = _read_kitti_calib(calib_path)
    try:
        cam = CalibratedCamera(projection, KITTI_IMAGE_SIZE)
        rect_to_velo = np.linalg.inv(r0_4 @ tr_4)
    except (InputError, np.linalg.LinAlgError) as e:
        raise KittiParseError(f"{calib_path}: {e}") from None
    boxes = load_kitti_labels(label_path, rect_to_velo)
    return SceneSample(cloud, np.zeros((1, *KITTI_IMAGE_SIZE)), cam, boxes,
                       frame_id=os.path.splitext(os.path.basename(str(velodyne_path)))[0])


def write_kitti_labels(boxes: list[DetectionBox], path,
                       velo_to_rect: np.ndarray | None = None):
    """KITTI 15-field label lines plus a trailing score from LIDAR-frame boxes."""
    if velo_to_rect is None:
        velo_to_rect = np.eye(4)
    with atomic_write(path) as f:
        for b in boxes:
            name = CLASS_NAMES[b.cls] if 0 <= b.cls < len(CLASS_NAMES) else "Misc"
            bottom = np.array([b.x, b.y, b.z - b.d / 2, 1.0])
            loc = velo_to_rect @ bottom
            ry = -b.t - math.pi / 2
            fields = [name, "0.00", "0", "-10",
                      "0.00", "0.00", "0.00", f"{b.height2d:.2f}",
                      f"{b.d:.2f}", f"{b.h:.2f}", f"{b.w:.2f}",
                      f"{loc[0]:.2f}", f"{loc[1]:.2f}", f"{loc[2]:.2f}",
                      f"{ry:.2f}", f"{b.score:.4f}"]
            f.write(" ".join(fields) + "\n")


# -- synthetic dataset manifest ---------------------------------------------------

# the columns of a scene record's ``boxes`` array, one row per box
BOX_COLUMNS = ("x", "y", "z", "w", "h", "d", "t", "score", "cls", "ignored", "height2d")
# |value| of a loaded image feature stays within this: far past synthetic
# features (about [-0.5, 1.5]) and KITTI's zeros, while a huge one overflows
# the squares of a training step
IMAGE_BOUND = 1e4
_BOUNDED_COLUMNS = [0, 1, 2, 3, 4, 5, 6, 10]


def _box_records(boxes: list[DetectionBox]) -> np.ndarray:
    """N x len(BOX_COLUMNS) rows of ``boxes``: a scene record's ``boxes``."""
    return np.array([[float(getattr(b, c)) for c in BOX_COLUMNS]
                     for b in boxes]).reshape(-1, len(BOX_COLUMNS))


def save_dataset(samples: list[SceneSample], directory):
    """Directory of per-frame .npz records plus an index.json manifest; a
    record stores no image size, which is its image features' H x W. Frame
    ids that ``_check_frame_ids`` rejects raise ValueError before any write."""
    _check_frame_ids([s.frame_id for s in samples])
    os.makedirs(directory, exist_ok=True)
    frames = []
    for s in samples:
        with atomic_write(os.path.join(directory, f"{s.frame_id}.npz"), "wb") as f:
            np.savez(f, points=s.cloud.points,
                     intensity=(s.cloud.intensity if s.cloud.intensity is not None
                                else np.zeros(len(s.cloud))),
                     image_features=s.image_feature_input,
                     projection=s.cam.projection,
                     boxes=_box_records(s.gt_boxes))
        frames.append(s.frame_id)
    with atomic_write(os.path.join(directory, "index.json")) as f:
        json.dump({"generator_version": GENERATOR_VERSION, "frames": frames}, f, indent=2)


def _check_frame_ids(frames: list[str]):
    """Raise ValueError unless each frame id is named once and is a plain
    file name: not empty, ``.`` or ``..``, and without a path separator, so
    its record ``<id>.npz`` lies in the index's directory."""
    seen = set()
    for fid in frames:
        if fid in ("", ".", "..") or os.sep in fid or (os.altsep and os.altsep in fid):
            raise ValueError(f"frame id {fid!r} is not a plain file name")
        if fid in seen:
            raise ValueError(f"frame id {fid!r} is listed twice")
        seen.add(fid)


# what np.load and the record fields raise on a damaged or foreign .npz file
_RECORD_ERRORS = (OSError, EOFError, KeyError, IndexError, TypeError, ValueError,
                  NotImplementedError, zipfile.BadZipFile)


def load_dataset(directory) -> list[SceneSample]:
    """Scenes written by ``save_dataset``; a malformed index.json or scene
    record raises InputError."""
    path = os.path.join(directory, "index.json")
    with open(path) as f:
        try:
            index = json.load(f)
            frames = index["frames"]
        except (ValueError, KeyError, TypeError) as e:
            raise InputError(f"{path}: not a dataset index: {e!r}") from None
    if not (isinstance(frames, list) and all(isinstance(fid, str) for fid in frames)):
        raise InputError(f"{path}: not a dataset index: frames must be a list of strings")
    try:
        _check_frame_ids(frames)
    except ValueError as e:
        raise InputError(f"{path}: not a dataset index: {e}") from None
    version = index.get("generator_version")
    if version != GENERATOR_VERSION:
        raise InputError(f"{path}: dataset version mismatch: generator_version {version!r}, "
                         f"this program reads {GENERATOR_VERSION}; regenerate the dataset")
    return [_load_record(os.path.join(directory, f"{fid}.npz"), fid) for fid in frames]


def _check_box_rows(rows: np.ndarray):
    """Raise ValueError unless ``rows`` are N box records of ``BOX_COLUMNS``:
    every value finite; ``w``, ``h`` and ``d`` > 0 unless the box is ignored
    (KITTI's ``DontCare`` rows carry -1 sizes); ``cls`` a non-negative
    integer that a float64 holds exactly (below 2**53); ``ignored`` 0 or 1;
    and every magnitude of ``_BOUNDED_COLUMNS`` at most ``BOX_BOUND``."""
    if rows.shape[1:] != (len(BOX_COLUMNS),):
        raise ValueError(f"boxes must be N x {len(BOX_COLUMNS)}, got {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("boxes hold a NaN or infinite value")
    huge = (np.abs(rows[:, _BOUNDED_COLUMNS]) > BOX_BOUND).any(axis=0)
    if huge.any():
        names = ", ".join(BOX_COLUMNS[c] for c, h in zip(_BOUNDED_COLUMNS, huge) if h)
        raise ValueError(f"box {names} beyond ±{BOX_BOUND:g}")
    if ((rows[:, 3:6].min(axis=1) <= 0) & (rows[:, 9] == 0)).any():
        raise ValueError("boxes that are not ignored must have w, h and d > 0")
    cls = rows[:, 8]
    if ((cls < 0) | (cls >= 2.0 ** 53) | (cls != np.floor(cls))).any():
        raise ValueError("box cls must be a non-negative integer below 2**53")
    if not np.isin(rows[:, 9], (0.0, 1.0)).all():
        raise ValueError("box ignored must be 0 or 1")


# the extents of each scene record array, a letter where any extent goes; the
# boxes' are those _check_box_rows asks for
_RECORD_SHAPES = {"points": ("N", 3), "intensity": ("N",),
                  "image_features": ("C", "H", "W"), "projection": (3, 4),
                  "boxes": None}


def _load_record(path, fid) -> SceneSample:
    """One scene record; each array must hold bool, int or float values in
    its ``_RECORD_SHAPES`` extents before it is converted. Its camera's
    image size is the image features' H x W."""
    try:
        with np.load(path) as z:
            arrays = {key: z[key] for key in _RECORD_SHAPES}
        for key, shape in _RECORD_SHAPES.items():
            a = arrays[key]
            if a.dtype.kind not in "biuf":
                raise ValueError(f"{key} must hold numbers, got dtype {a.dtype}")
            if shape and (a.ndim != len(shape) or any(
                    s != n for s, n in zip(shape, a.shape) if not isinstance(s, str))):
                raise ValueError(f"{key} must be {' x '.join(map(str, shape))}, "
                                 f"got shape {a.shape}")
        rows = arrays["boxes"]
        _check_box_rows(rows)
        boxes = [DetectionBox(*r[:7], score=r[7], cls=int(r[8]), ignored=bool(r[9]),
                              height2d=r[10]) for r in rows]
        image = np.asarray(arrays["image_features"], dtype=np.float64)
        if not np.isfinite(image).all():
            raise ValueError("image_features hold a non-finite value")
        if (np.abs(image) > IMAGE_BOUND).any():
            raise ValueError(f"image_features hold a value beyond ±{IMAGE_BOUND:g}")
        cam = CalibratedCamera(arrays["projection"], image.shape[1:])
        return SceneSample(PointCloud(arrays["points"], intensity=arrays["intensity"]),
                           image, cam, boxes, frame_id=fid)
    except _RECORD_ERRORS as e:
        raise InputError(f"{path}: corrupt scene record: {e!r}") from None
