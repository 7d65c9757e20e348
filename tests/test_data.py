import io
import json
import math
import os
import pathlib
import tempfile
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevfuse.backbone import MODES
from bevfuse.config import load_config
from bevfuse.data import (CLASS_NAMES, IGNORED_CLASSES, AugmentationConfig,
                          KittiParseError, SceneGenConfig, _box_surface_points,
                          _kitti_chain, augment,
                          generate_dataset, generate_scene, load_dataset,
                          load_kitti_calib, load_kitti_frame, load_kitti_labels,
                          load_kitti_velodyne, make_forward_camera,
                          parse_kitti_label_line, save_dataset,
                          write_kitti_labels)
from bevfuse.detect import DetectionBox, rotated_iou_bev
from bevfuse.geometry import PointCloud, project_points
from bevfuse.pipeline import build_model, miniature_config, prepare_scene, scene_loss
from bevfuse.tensor import InputError, Tensor


def _cfg(**kw):
    return SceneGenConfig(**{"seed": 0, **kw})


def test_generation_deterministic():
    a = generate_scene(_cfg())
    b = generate_scene(_cfg())
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    np.testing.assert_array_equal(a.image_feature_input,
                                  b.image_feature_input)
    assert len(a.gt_boxes) == len(b.gt_boxes)
    for x, y in zip(a.gt_boxes, b.gt_boxes):
        assert (x.x, x.y, x.t) == (y.x, y.y, y.t)


def test_generated_boxes_disjoint_and_in_range():
    for seed in range(5):
        scene = generate_scene(_cfg(seed=seed))
        boxes = scene.gt_boxes
        cfg = _cfg()
        for i, a in enumerate(boxes):
            assert cfg.x_range[0] <= a.x <= cfg.x_range[1]
            assert cfg.y_range[0] <= a.y <= cfg.y_range[1]
            for b in boxes[i + 1:]:
                assert rotated_iou_bev(a, b) == 0.0


def test_object_point_density_falls_with_distance():
    cfg = _cfg(ground_points=0, object_count=(3, 3), seed=2)
    scene = generate_scene(cfg)
    # expected counts scale as ref * ref_dist / x
    per_box = []
    for box in scene.gt_boxes:
        corners_dist = np.linalg.norm(
            scene.cloud.points[:, :2] - [box.x, box.y], axis=1)
        per_box.append((box.x, (corners_dist < math.hypot(box.w, box.h)).sum()))
    per_box.sort()
    assert per_box[0][1] >= per_box[-1][1]


def test_occlusion_fraction_starves_lidar():
    cfg = _cfg(ground_points=0, object_count=(4, 4), occlusion_fraction=0.5,
               seed=3)
    scene = generate_scene(cfg)
    near_counts = []
    for box in scene.gt_boxes:
        d = np.linalg.norm(scene.cloud.points[:, :2] - [box.x, box.y], axis=1)
        near_counts.append(int((d < math.hypot(box.w, box.h)).sum()))
    assert sum(1 for c in near_counts if c < 3) >= 2


def test_presence_channel_painted():
    scene = generate_scene(_cfg(seed=1))
    presence = scene.image_feature_input[0]
    assert presence.max() > 0.0
    uv, valid = project_points(
        PointCloud(np.array([[b.x, b.y, b.z] for b in scene.gt_boxes])),
        scene.cam)
    for (u, v), ok in zip(uv, valid):
        if ok:
            assert presence[int(round(v)), int(round(u))] > 0.0


def test_generate_dataset_distinct_seeds():
    scenes = generate_dataset(_cfg(), 3)
    assert len({s.frame_id for s in scenes}) == 3


def test_augment_consistency():
    scene = generate_scene(_cfg(seed=4))
    out = augment(scene, AugmentationConfig(), seed=9)
    assert len(out.gt_boxes) == len(scene.gt_boxes)
    assert out.cloud.points.shape == scene.cloud.points.shape
    # projecting a transformed gt center with the transformed calibration
    # lands where the original center projected under the original one
    b0, b1 = scene.gt_boxes[0], out.gt_boxes[0]
    uv0, v0 = project_points(PointCloud(np.array([[b0.x, b0.y, b0.z]])), scene.cam)
    uv1, v1 = project_points(PointCloud(np.array([[b1.x, b1.y, b1.z]])), out.cam)
    if v0[0] and v1[0]:
        img_cfg = AugmentationConfig()
        # image warp moves content; projection must track it within its scale
        assert np.linalg.norm(uv1 - uv0) < img_cfg.image_translate_px + 20


def test_augment_keeps_each_points_intensity():
    scene = generate_scene(_cfg(seed=4))
    intensity = np.arange(len(scene.cloud)) / 7.0
    scene = replace(scene, cloud=PointCloud(scene.cloud.points, intensity))
    out = augment(scene, AugmentationConfig(), seed=9)
    assert not np.array_equal(out.cloud.points, scene.cloud.points)
    np.testing.assert_array_equal(out.cloud.intensity, intensity)


def test_augment_deterministic():
    scene = generate_scene(_cfg(seed=4))
    a = augment(scene, AugmentationConfig(), seed=9)
    b = augment(scene, AugmentationConfig(), seed=9)
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    assert a.gt_boxes[0].x == b.gt_boxes[0].x


def test_default_augmentation_keeps_the_image_content():
    # the 200 scenes of 50 augmented overfit.yaml steps, seeded as train_run
    # seeds them; each keeps its share of the channel-0 presence mass
    cfg = load_config(pathlib.Path(__file__).resolve().parent.parent / "configs" / "overfit.yaml")
    scenes = generate_dataset(cfg.data.synthetic, cfg.data.n_scenes)
    kept = [augment(s, AugmentationConfig(), seed=[cfg.seed, step, i]).image_feature_input[0]
            .sum() / s.image_feature_input[0].sum()
            for step in range(50) for i, s in enumerate(scenes)]
    assert np.median(kept) >= 0.9


def test_augment_identity_image_transform_keeps_features():
    scene = generate_scene(_cfg(seed=4))
    out = augment(scene, AugmentationConfig(image_scale=(1.0, 1.0),
                                            image_translate_px=0.0), seed=9)
    assert out.image_feature_input.tobytes() == \
        scene.image_feature_input.tobytes()


def _bilinear_reference(fm, src_u, src_v):
    """Loop-nest bilinear resampling; sources outside the map give zero."""
    c, h, w = fm.shape
    out = np.zeros((c, h, w))
    for i in range(h):
        for j in range(w):
            u, v = src_u[i, j], src_v[i, j]
            if not (0 <= u <= w - 1 and 0 <= v <= h - 1):
                continue
            u0, v0 = min(int(math.floor(u)), w - 2), min(int(math.floor(v)), h - 2)
            du, dv = u - u0, v - v0
            for ch in range(c):
                out[ch, i, j] = ((1 - du) * (1 - dv) * fm[ch, v0, u0]
                                 + du * (1 - dv) * fm[ch, v0, u0 + 1]
                                 + (1 - du) * dv * fm[ch, v0 + 1, u0]
                                 + du * dv * fm[ch, v0 + 1, u0 + 1])
    return out


@pytest.mark.parametrize("seed", [3, 9, 21])
def test_augment_warp_matches_loop_reference(seed):
    scene = generate_scene(_cfg(seed=4, image_shape=(2, 12, 20)))
    cfg = AugmentationConfig(image_translate_px=4.0)
    out = augment(scene, cfg, seed=seed)
    # the image scale and shift are the last draws of augment's generator
    rng = np.random.default_rng(seed)
    rng.uniform(size=6)
    img_s = rng.uniform(*cfg.image_scale)
    img_tu, img_tv = rng.uniform(-cfg.image_translate_px, cfg.image_translate_px, 2)
    c, h, w = scene.image_feature_input.shape
    cu, cv = (w - 1) / 2.0, (h - 1) / 2.0
    vs, us = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    src_u = (us - ((1 - img_s) * cu + img_tu)) / img_s
    src_v = (vs - ((1 - img_s) * cv + img_tv)) / img_s
    inside = (src_u >= 0) & (src_u <= w - 1) & (src_v >= 0) & (src_v <= h - 1)
    assert inside.any() and not inside.all()
    ref = _bilinear_reference(scene.image_feature_input, src_u, src_v)
    np.testing.assert_allclose(out.image_feature_input, ref, rtol=0, atol=1e-12)


def _surface_points_reference(box, n, rng):
    """Per-point face loop: four vertical faces and the top of the cuboid."""
    faces = rng.integers(0, 5, size=n)
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    local = np.zeros((n, 3))
    for i, f in enumerate(faces):
        local[i] = [(0.5, u[i], v[i]), (-0.5, u[i], v[i]), (u[i], 0.5, v[i]),
                    (u[i], -0.5, v[i]), (u[i], v[i], 0.5)][f]
    local *= np.array([box.w, box.h, box.d])
    c, s = math.cos(box.t), math.sin(box.t)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + np.array([box.x, box.y, box.z])


def test_box_surface_points_match_per_point_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        box = DetectionBox(*rng.uniform(-5, 5, 3), *rng.uniform(0.5, 4, 3),
                           rng.uniform(-3, 3))
        n, seed = int(rng.integers(0, 60)), int(rng.integers(2**31))
        got = _box_surface_points(box, n, np.random.default_rng(seed))
        ref = _surface_points_reference(box, n, np.random.default_rng(seed))
        assert got.shape == (n, 3) and got.tobytes() == ref.tobytes()


def test_class_tables():
    assert CLASS_NAMES[0] == "Car"
    assert all(name in CLASS_NAMES for name in IGNORED_CLASSES)


# -- KITTI fixtures -----------------------------------------------------------

CALIB_TEXT = """P0: 1 0 0 0 0 1 0 0 0 0 1 0
P1: 1 0 0 0 0 1 0 0 0 0 1 0
P2: 700.0 0.0 600.0 40.0 0.0 700.0 180.0 2.0 0.0 0.0 1.0 0.01
P3: 1 0 0 0 0 1 0 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0
Tr_imu_to_velo: 1 0 0 0 0 1 0 0 0 0 1 0
"""

LABEL_TEXT = (
    "Car 0.00 0 -1.58 100.0 150.0 300.0 250.0 1.50 1.80 4.20 2.0 1.7 15.0 -1.58\n"
    "DontCare -1 -1 -10 500.0 160.0 560.0 200.0 -1 -1 -1 -1000 -1000 -1000 -10\n"
    "Van 0.00 1 0.00 10.0 10.0 60.0 60.0 2.0 1.9 5.0 -3.0 1.6 9.0 0.00\n"
)


@pytest.fixture
def kitti_dir(tmp_path):
    velo = np.array([[10.0, 1.0, -0.5, 0.3], [20.0, -2.0, 0.0, 0.9]],
                    dtype=np.float32)
    (tmp_path / "000000.bin").write_bytes(velo.tobytes())
    (tmp_path / "000000.txt").write_text(CALIB_TEXT)
    (tmp_path / "label_000000.txt").write_text(LABEL_TEXT)
    return tmp_path


def test_load_velodyne_exact(kitti_dir):
    cloud = load_kitti_velodyne(kitti_dir / "000000.bin")
    np.testing.assert_allclose(cloud.points,
                               [[10.0, 1.0, -0.5], [20.0, -2.0, 0.0]],
                               atol=1e-6)
    np.testing.assert_allclose(cloud.intensity, [0.3, 0.9], atol=1e-6)


def test_load_velodyne_rejects_truncated(tmp_path):
    (tmp_path / "bad.bin").write_bytes(b"\x00" * 10)
    with pytest.raises(KittiParseError):
        load_kitti_velodyne(tmp_path / "bad.bin")


def test_load_calib_projects_forward_point(kitti_dir):
    cam = load_kitti_calib(kitti_dir / "000000.txt")
    # velodyne (15, 0, 0) -> camera (0, 0, 15): u = 700*0/15 + 600, v = 180
    uv, valid = project_points(PointCloud(np.array([[15.0, 0.0, 0.0]])), cam)
    assert valid[0]
    np.testing.assert_allclose(uv[0, 0], (700.0 * 0 + 600.0 * 15 + 40.0) / (15 + 0.01))
    np.testing.assert_allclose(uv[0, 1], (180.0 * 15 + 2.0) / (15 + 0.01))


def test_load_labels_exact(kitti_dir):
    from bevfuse.data import _kitti_chain
    r0_4, tr_4 = _kitti_chain(kitti_dir / "000000.txt")
    rect_to_velo = np.linalg.inv(r0_4 @ tr_4)
    boxes = load_kitti_labels(kitti_dir / "label_000000.txt", rect_to_velo)
    assert len(boxes) == 3
    car = boxes[0]
    assert car.cls == CLASS_NAMES.index("Car")
    assert not car.ignored
    # camera (x=2.0, y=1.7, z=15.0) -> velodyne (15.0, -2.0, -1.7) + h/2 lift
    np.testing.assert_allclose((car.x, car.y), (15.0, -2.0), atol=1e-9)
    np.testing.assert_allclose(car.z, -1.7 + 1.5 / 2, atol=1e-9)
    np.testing.assert_allclose((car.w, car.h, car.d), (4.20, 1.80, 1.50))
    np.testing.assert_allclose(car.t, -(-1.58) - math.pi / 2)
    np.testing.assert_allclose(car.height2d, 250.0 - 150.0)
    assert boxes[1].ignored and boxes[1].cls == CLASS_NAMES.index("DontCare")
    assert boxes[2].ignored and boxes[2].cls == CLASS_NAMES.index("Van")


def test_label_write_read_round_trip(kitti_dir, tmp_path):
    from bevfuse.data import _kitti_chain
    r0_4, tr_4 = _kitti_chain(kitti_dir / "000000.txt")
    velo_to_rect = r0_4 @ tr_4
    rect_to_velo = np.linalg.inv(velo_to_rect)
    boxes = load_kitti_labels(kitti_dir / "label_000000.txt", rect_to_velo)
    out = tmp_path / "rt.txt"
    write_kitti_labels(boxes, out, velo_to_rect)
    again = load_kitti_labels(out, rect_to_velo)
    assert len(again) == len(boxes)
    for a, b in zip(again, boxes):
        assert a.cls == b.cls and a.ignored == b.ignored
        for attr in ("x", "y", "z", "w", "h", "d", "t"):
            assert abs(getattr(a, attr) - getattr(b, attr)) < 1e-2


def _rotation(yaw, pitch, roll):
    cz, sz, cy, sy, cx, sx = (math.cos(yaw), math.sin(yaw), math.cos(pitch),
                              math.sin(pitch), math.cos(roll), math.sin(roll))
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ ry @ rx


# label fields on the grid the format stores: centimetres, hundredths of a
# radian and of a pixel, and four-decimal scores
_LABEL_ROWS = st.lists(st.tuples(
    st.sampled_from(CLASS_NAMES),
    st.tuples(*[st.integers(-5000, 5000)] * 3),     # bottom centre, camera frame
    st.tuples(*[st.integers(1, 800)] * 3),          # height, width, length
    st.integers(-314, 314),                         # ry
    st.integers(0, 40000),                          # 2D box height
    st.integers(0, 10000)), max_size=6)             # score
_ANGLE = st.floats(-math.pi, math.pi)


@settings(max_examples=200, deadline=None)
@given(_LABEL_ROWS, st.tuples(*[_ANGLE] * 6), st.tuples(*[st.floats(-3.0, 3.0)] * 3))
def test_kitti_label_round_trip_property(rows, angles, shift):
    tr = np.column_stack([_rotation(*angles[:3]), shift])
    r0 = _rotation(*angles[3:])
    calib = "P2: 700 0 600 0 0 700 180 0 0 0 1 0\n" \
        f"R0_rect: {' '.join(map(repr, r0.ravel().tolist()))}\n" \
        f"Tr_velo_to_cam: {' '.join(map(repr, tr.ravel().tolist()))}\n"
    with tempfile.TemporaryDirectory() as tmp:
        calib_path, label_path = os.path.join(tmp, "calib.txt"), os.path.join(tmp, "l.txt")
        with open(calib_path, "w") as f:
            f.write(calib)
        r0_4, tr_4 = _kitti_chain(calib_path)
        velo_to_rect = r0_4 @ tr_4
        rect_to_velo = np.linalg.inv(velo_to_rect)
        boxes = []
        for name, loc, (hgt, wid, length), ry, h2d, score in rows:
            center = rect_to_velo @ np.array([*(np.array(loc) / 100), 1.0])
            boxes.append(DetectionBox(
                center[0], center[1], center[2] + hgt / 200, length / 100, wid / 100,
                hgt / 100, -ry / 100 - math.pi / 2, score=score / 1e4,
                cls=CLASS_NAMES.index(name),
                ignored=name in IGNORED_CLASSES, height2d=h2d / 100))
        write_kitti_labels(boxes, label_path, velo_to_rect)
        again = load_kitti_labels(label_path, rect_to_velo)
    assert len(again) == len(boxes)
    for a, b in zip(again, boxes):
        assert (a.cls, a.ignored) == (b.cls, b.ignored)
        for attr in ("x", "y", "z", "w", "h", "d", "t", "score", "height2d"):
            assert abs(getattr(a, attr) - getattr(b, attr)) <= 1e-9, attr


@pytest.mark.parametrize("name", ["Truck", "Tram", "Person_sitting"])
def test_a_class_outside_class_names_reads_as_misc_and_survives_a_round_trip(
        tmp_path, name):
    line = f"{name} 0.00 0 -1.57 100.00 120.00 200.00 220.00 1.50 1.60 3.90 2.00 1.50 20.00 0.10"
    box = parse_kitti_label_line(line, np.eye(4))
    assert box.cls == CLASS_NAMES.index("Misc") and not box.ignored
    write_kitti_labels([box], tmp_path / "l.txt")
    (again,) = load_kitti_labels(tmp_path / "l.txt", np.eye(4))
    assert (again.cls, again.ignored) == (box.cls, box.ignored)


@pytest.mark.parametrize("drop", ["P2", "R0_rect", "Tr_velo_to_cam"])
def test_calib_missing_key_is_parse_error(kitti_dir, drop):
    calib = kitti_dir / "000000.txt"
    calib.write_text("".join(line + "\n" for line in CALIB_TEXT.splitlines()
                             if not line.startswith(drop + ":")))
    with pytest.raises(KittiParseError, match=drop):
        _kitti_chain(calib)
    with pytest.raises(KittiParseError, match=drop):
        load_kitti_frame(kitti_dir / "000000.bin", calib, kitti_dir / "label_000000.txt")


def test_calib_wrong_value_count_is_parse_error(kitti_dir):
    calib = kitti_dir / "000000.txt"
    calib.write_text(CALIB_TEXT.replace("R0_rect: 1 0 0 0 1 0 0 0 1", "R0_rect: 1 0 0"))
    with pytest.raises(KittiParseError):
        load_kitti_calib(calib)


def test_parse_label_rejects_short_line():
    with pytest.raises(KittiParseError):
        parse_kitti_label_line("Car 1 2 3", np.eye(4))


def test_save_load_dataset_round_trip(tmp_path):
    scenes = generate_dataset(_cfg(), 2)
    box = scenes[0].gt_boxes[0]
    # an ignored box may carry KITTI's DontCare sizes of -1
    scenes[0].gt_boxes[0] = replace(box, score=0.25, ignored=True, height2d=37.5,
                                    w=-1.0, h=-1.0, d=-1.0)
    save_dataset(scenes, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert len(loaded) == 2
    for a, b in zip(loaded, scenes):
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        np.testing.assert_array_equal(a.image_feature_input,
                                      b.image_feature_input)
        np.testing.assert_array_equal(a.cam.projection, b.cam.projection)
        assert (a.frame_id, a.cam.image_size) == (b.frame_id, b.cam.image_size)
        assert [astuple(x) for x in a.gt_boxes] == [astuple(y) for y in b.gt_boxes]


def test_a_records_camera_takes_its_images_size(tmp_path):
    scenes = [generate_scene(_cfg(image_shape=shape), seed=i)
              for i, shape in enumerate([(2, 8, 16), (3, 24, 40)])]
    save_dataset(scenes, tmp_path)
    assert json.loads((tmp_path / "index.json").read_text())["generator_version"] == 4
    for s in scenes:
        with np.load(tmp_path / f"{s.frame_id}.npz") as z:
            assert sorted(z) == ["boxes", "image_features", "intensity", "points",
                                 "projection"]
    assert [s.cam.image_size for s in load_dataset(tmp_path)] == [(8, 16), (24, 40)]


def test_interrupted_save_keeps_the_old_manifest(tmp_path, monkeypatch):
    scenes = generate_dataset(_cfg(), 2)
    save_dataset(scenes, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    savez, calls = np.savez, []

    def torn_savez(file, **arrays):
        """The second record stops after 100 bytes, as on a full disk."""
        calls.append(file)
        if len(calls) < 2:
            return savez(file, **arrays)
        buf = io.BytesIO()
        savez(buf, **arrays)
        file.write(buf.getvalue()[:100])
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="no space"):
        save_dataset(scenes, tmp_path)
    assert not list(tmp_path.glob("*.tmp"))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    assert len(load_dataset(tmp_path)) == 2


@pytest.mark.parametrize("key,mutate,message", [
    ("points", lambda a: a.astype(str), "points must hold numbers, got dtype <U"),
    ("intensity", lambda a: a[None], r"intensity must be N, got shape \(1, "),
    ("image_features", lambda a: a.astype(complex), "image_features must hold numbers"),
    ("projection", np.ravel, r"projection must be 3 x 4, got shape \(12,\)"),
    ("image_features", lambda a: a[:, :0], r"image_size\[0\] must be > 0, got 0"),
    ("boxes", lambda a: a.astype(complex), "boxes must hold numbers")])
def test_record_array_of_another_dtype_or_shape_is_named(tmp_path, key, mutate, message):
    save_dataset(generate_dataset(_cfg(), 1), tmp_path)
    record = next(tmp_path.glob("*.npz"))
    with np.load(record) as z:
        arrays = dict(z)
    np.savez(record, **{**arrays, key: mutate(arrays[key])})
    with pytest.raises(InputError, match=message):
        load_dataset(tmp_path)


@pytest.mark.parametrize("mode", MODES)
def test_preparing_scenes_builds_no_tape_op(monkeypatch, kitti_dir, tmp_path, mode):
    """Generating, loading, augmenting and preparing a scene touch no tape:
    the scenes hold arrays, and only ``DetectorModel.forward`` makes Tensors."""
    cfg = replace(miniature_config(), mode=mode)
    model = build_model(cfg)

    def no_tape(*args):
        raise AssertionError(f"tape op {args[2]!r} while preparing a scene")
    monkeypatch.setattr(Tensor, "_result", staticmethod(no_tape))
    with pytest.raises(AssertionError, match="tape op 'neg'"):
        -Tensor(1.0)
    scenes = generate_dataset(cfg.data.synthetic, 2)
    save_dataset(scenes, tmp_path / "ds")
    scenes += load_dataset(tmp_path / "ds")
    scenes.append(load_kitti_frame(kitti_dir / "000000.bin", kitti_dir / "000000.txt",
                                   kitti_dir / "label_000000.txt"))
    scenes += [augment(s, AugmentationConfig(), seed=[cfg.seed, 0, i])
               for i, s in enumerate(scenes)]
    preps = [prepare_scene(model, cfg, s) for s in scenes]
    # the patch is undone: a training step on the generated scenes runs its tape
    monkeypatch.undo()
    params = model.parameters()
    loss = scene_loss(model, cfg, preps[:2], [np.random.default_rng(i) for i in range(2)])
    (loss[0].total + loss[1].total).backward()
    assert all(p.grad is not None for p in params.values())
