import json
import math
import os
import pathlib
import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest
import yaml

from bevfuse import pipeline
from bevfuse.backbone import GroupSpec
from bevfuse.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from bevfuse.config import config_to_dict
from bevfuse.data import (BOX_COLUMNS, GENERATOR_VERSION, AugmentationConfig,
                          generate_dataset, save_dataset)
from bevfuse.losses import AssignmentConfig, hard_negative_mining
from bevfuse.pipeline import build_model, miniature_config
from bevfuse.tensor import save_checkpoint


def _write_mini_config(path, **overrides):
    cfg = miniature_config()
    cfg.optimizer.steps = overrides.pop("steps", 3)
    for key, val in overrides.items():
        setattr(cfg, key, val)
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f)
    return cfg


def test_train_writes_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "config.yaml").exists()
    assert (out / "ckpt_final.bin").exists()
    assert (out / "final_metrics.json").exists()
    log_lines = (out / "train_log.jsonl").read_text().strip().splitlines()
    assert len(log_lines) == 3
    rec = json.loads(log_lines[0])
    assert set(rec) == {"step", "L", "L_cls", "L_reg", "N", "N_pos"}
    summary = json.loads(capsys.readouterr().out)
    assert "final_loss" in summary


def test_train_with_no_selected_anchor_exits_ok(tmp_path):
    """Scenes without objects and a zero negative floor select no anchor:
    the loss is 0 on the tape and every parameter takes a zero grad."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg = miniature_config()
    cfg.optimizer.steps = 2
    cfg.data.synthetic.object_count = (0, 0)
    cfg.assign = AssignmentConfig(3.0, 3.0, topk_neg_floor=0)
    with open(cfg_path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert [(r["L"], r["N"]) for r in rows] == [(0.0, 0), (0.0, 0)]


def test_eval_loads_checkpoint(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == EXIT_OK
    out = tmp_path / "eval"
    rc = main(["eval", "--config", str(cfg_path), "--out", str(out),
               "--checkpoint", str(run / "ckpt_final.bin")])
    assert rc == EXIT_OK
    assert (out / "eval_report.json").exists()


def test_report_prints_metrics(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    run = tmp_path / "run"
    main(["train", "--config", str(cfg_path), "--out", str(run)])
    capsys.readouterr()
    assert main(["report", str(run)]) == EXIT_OK
    assert "final_loss" in capsys.readouterr().out


def test_missing_config_is_config_error(tmp_path):
    rc = main(["train", "--config", str(tmp_path / "nope.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_invalid_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: psychic\n")
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the overflow is the point
def test_numeric_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg = miniature_config()
    cfg.optimizer.steps = 5
    cfg.optimizer.lr = 1e200         # second forward pass overflows to inf
    with open(cfg_path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f)
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_NUMERIC


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", str(cfg_path), "--out", str(a), "--seed", "1"])
    main(["train", "--config", str(cfg_path), "--out", str(b), "--seed", "2"])
    ca = (a / "ckpt_final.bin").read_bytes()
    cb = (b / "ckpt_final.bin").read_bytes()
    assert ca != cb


def test_gradcheck_command(capsys, monkeypatch):
    # the check runs scene_loss as training does: its finite differences hold
    # only while every scene keeps every negative it samples, so that the
    # mined set does not depend on the parameters
    kept_all = []

    def mining(neg_idx, scores, n_pos, assign, rng):
        mined = hard_negative_mining(neg_idx, scores, n_pos, assign, rng)
        kept_all.append(mined.size == math.ceil(assign.neg_sample_fraction * len(neg_idx)))
        return mined
    monkeypatch.setattr(pipeline, "hard_negative_mining", mining)
    assert main(["gradcheck", "--rtol", "1e-3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert kept_all and all(kept_all)


def test_bad_knn_grid_is_config_error(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    rc = main(["ablate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
               "--knn-grid", "nonsense"])
    assert rc == EXIT_CONFIG


def test_knn_grid_bad_k_fails_before_training(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    out = tmp_path / "o"
    rc = main(["ablate", "--config", str(cfg_path), "--out", str(out),
               "--knn-grid", "0:10"])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_knn_grid_bad_max_dist_fails_before_training(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    out = tmp_path / "o"
    rc = main(["ablate", "--config", str(cfg_path), "--out", str(out),
               "--knn-grid", "1:-1"])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_knn_grid_cells_sharing_a_directory_fail_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    out = tmp_path / "o"
    rc = main(["ablate", "--config", str(cfg_path), "--out", str(out),
               "--knn-grid", "1:10,1:10"])
    assert rc == EXIT_CONFIG
    assert not out.exists()
    assert "continuous_nogeo_k1_d10" in capsys.readouterr().err


def _eval_damaged_checkpoint(tmp_path, damage):
    cfg_path = tmp_path / "cfg.yaml"
    cfg = _write_mini_config(cfg_path)
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint(build_model(cfg).parameters(), ckpt)
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    return main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(ckpt)])


@pytest.mark.parametrize("cut", [2, 7, 200, -3])
def test_truncated_checkpoint_is_config_error(tmp_path, cut):
    assert _eval_damaged_checkpoint(tmp_path, lambda raw: raw[:cut]) == EXIT_CONFIG


def test_truncated_checkpoint_leaves_no_run_directory(tmp_path):
    assert _eval_damaged_checkpoint(tmp_path, lambda raw: raw[:-3]) == EXIT_CONFIG
    assert not (tmp_path / "e").exists()


def test_bad_checkpoint_magic_is_config_error(tmp_path):
    assert _eval_damaged_checkpoint(tmp_path, lambda raw: b"XXXX" + raw[4:]) == EXIT_CONFIG


def _first_record(raw):
    """The name length and the shape of a checkpoint's first record, and the
    offsets where its data starts and ends."""
    (nlen,) = struct.unpack("<H", raw[9:11])
    ndim = raw[11 + nlen]
    shape = struct.unpack(f"<{ndim}I", raw[12 + nlen:12 + nlen + 4 * ndim])
    start = 12 + nlen + 4 * ndim
    return nlen, shape, start, start + 8 * math.prod(shape)


def _repeat_first_record(raw):
    """The checkpoint with its first record stored once more at the end."""
    (count,) = struct.unpack("<I", raw[5:9])
    end = _first_record(raw)[3]
    return raw[:5] + struct.pack("<I", count + 1) + raw[9:] + raw[9:end]


def test_repeated_checkpoint_record_is_config_error(tmp_path, capsys):
    assert _eval_damaged_checkpoint(tmp_path, _repeat_first_record) == EXIT_CONFIG
    assert not (tmp_path / "e").exists()
    assert "stored twice" in capsys.readouterr().err


def _unit_axis_on_first_record(raw):
    """The checkpoint with a trailing unit axis on its first record's shape:
    the same data under a shape the model does not have."""
    nlen, shape, start, _ = _first_record(raw)
    return (raw[:11 + nlen] + bytes([len(shape) + 1]) + raw[12 + nlen:start]
            + struct.pack("<I", 1) + raw[start:])


def _max_extents_on_first_record(raw):
    """The checkpoint with every extent of its first record set to 2**32 - 1:
    a record too large to allocate, let alone to fit in the file."""
    nlen, shape, start, _ = _first_record(raw)
    return (raw[:12 + nlen] + struct.pack(f"<{len(shape)}I", *[2**32 - 1] * len(shape))
            + raw[start:])


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:4] + b"\x02" + raw[5:], _unit_axis_on_first_record,
    lambda raw: raw[:11] + b"~" + raw[12:]],           # the first name's first byte
    ids=["version_2", "shape_differs", "renamed"])
def test_checkpoint_that_misfits_the_model_is_config_error(tmp_path, damage):
    assert _eval_damaged_checkpoint(tmp_path, damage) == EXIT_CONFIG
    assert not (tmp_path / "e").exists()


def test_eval_of_a_size_offset_past_the_exp_range_exits_0(tmp_path):
    # orientation 0's p_w decodes to an infinite width, which decoding, NMS and
    # AP matching take without a warning
    cfg_path = tmp_path / "cfg.yaml"
    params = build_model(_write_mini_config(cfg_path)).parameters()
    params["header.bias"].data[3] = 800.0
    save_checkpoint(params, tmp_path / "ckpt.bin")
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(tmp_path / "ckpt.bin")]) == EXIT_OK


def test_non_finite_checkpoint_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    params = build_model(_write_mini_config(cfg_path)).parameters()
    params["header.weight"].data[0, 0, 0, 0] = np.nan
    save_checkpoint(params, tmp_path / "ckpt.bin")
    rc = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
               "--checkpoint", str(tmp_path / "ckpt.bin")])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "e").exists()
    assert "header.weight" in capsys.readouterr().err


_CALIB = (b"P2: 1 0 0 0 0 1 0 0 0 0 1 0\nR0_rect: 1 0 0 0 1 0 0 0 1\n"
          b"Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n")


def _kitti_argv(tmp_path, calib, labels, malform=lambda frame: frame):
    (tmp_path / "f.bin").write_bytes(np.zeros((2, 4), dtype=np.float32).tobytes())
    (tmp_path / "calib.txt").write_bytes(calib)
    (tmp_path / "label.txt").write_bytes(labels)
    cfg = miniature_config()
    cfg.data.source = "kitti"
    cfg.data.kitti_frames = [malform({"velodyne": str(tmp_path / "f.bin"),
                                      "calib": str(tmp_path / "calib.txt"),
                                      "labels": str(tmp_path / "label.txt")})]
    return ["train", "--config", str(_write_config(tmp_path / "cfg.yaml", cfg)),
            "--out", str(tmp_path / "o")]


def test_kitti_image_that_misfits_the_image_stream_is_config_error(tmp_path):
    assert main(_kitti_argv(tmp_path, _CALIB, b"")) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_ablate_on_kitti_data_exits_before_any_output(tmp_path):
    argv = _kitti_argv(tmp_path, _CALIB, b"")
    argv[0] = "ablate"
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_kitti_trains_in_bev_only_mode(tmp_path, monkeypatch):
    monkeypatch.setenv("BEVFUSE_MODE", "bev_only")
    monkeypatch.setenv("BEVFUSE_OPTIMIZER__STEPS", "2")
    assert main(_kitti_argv(tmp_path, _CALIB, b"")) == EXIT_OK
    assert (tmp_path / "o" / "final_metrics.json").exists()


def test_malformed_calib_is_config_error(tmp_path, monkeypatch):
    calib = b"P2: 1 0 0 0 0 1 0 0 0 0 1 0\nR0_rect: 1 0 0 0 1 0 0 0 1\n"
    assert main(_kitti_argv(tmp_path, calib, b"")) == EXIT_CONFIG
    # a rank-deficient camera, or a rectified frame the labels cannot leave;
    # in bev_only the image fits, so only the calibration can fail
    monkeypatch.setenv("BEVFUSE_MODE", "bev_only")
    for old, new in ((b"P2: 1 0 0 0 0 1 0 0 0 0 1 0", b"P2:" + b" 0" * 12),
                     (b"R0_rect: 1 0 0 0 1 0 0 0 1", b"R0_rect:" + b" 0" * 9),
                     (b"Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0",
                      b"Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 0 1")):
        assert main(_kitti_argv(tmp_path, _CALIB.replace(old, new), b"")) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()


_VAN = b"Van 0.00 0 0.00 0 0 10 10 1.50 1.60 4.00 8.00 0.00 0.00 0.00\n"


@pytest.mark.parametrize("label,positives", [
    (_VAN.replace(b"Van", b"Car"), True), (_VAN, False),
    # a DontCare row inside the BEV range, with KITTI's -1 sizes
    (b"DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 8.00 0.00 0.00 -10\n", False)],
    ids=["car", "van", "dontcare_in_range"])
def test_ignored_kitti_boxes_never_train_as_positives(tmp_path, monkeypatch, label,
                                                      positives):
    monkeypatch.setenv("BEVFUSE_MODE", "bev_only")
    monkeypatch.setenv("BEVFUSE_OPTIMIZER__STEPS", "3")
    assert main(_kitti_argv(tmp_path, _CALIB, label)) == EXIT_OK
    with open(tmp_path / "o" / "train_log.jsonl") as f:
        n_pos = [json.loads(line)["N_pos"] for line in f]
    assert len(n_pos) == 3 and all((n > 0) == positives for n in n_pos)


def _nan_dimension_label(frame):
    with open(frame["labels"], "wb") as f:
        f.write(b"Car 0.00 0 0.00 0 0 10 10 1.50 nan 4.00 8.00 0.00 0.00 0.00\n")
    return frame


def _car_label(old: bytes, new: bytes):
    """A malform whose label file holds one ``Car`` row with ``old`` made ``new``."""
    def malform(frame):
        with open(frame["labels"], "wb") as f:
            f.write(_VAN.replace(b"Van", b"Car").replace(old, new))
        return frame
    return malform


@pytest.mark.parametrize("malform", [
    lambda frame: "abc", lambda frame: {k: frame[k] for k in ("velodyne", "calib")},
    lambda frame: {**frame, "image": frame["velodyne"]},
    lambda frame: {**frame, "labels": [frame["labels"]]}, _nan_dimension_label,
    _car_label(b"1.60", b"0.00"), _car_label(b"1.60", b"-4.00"),
    _car_label(b"0.00\n", b"1e300\n")],
    ids=["not_a_mapping", "no_labels", "extra_key", "path_not_a_string",
         "label_dimension_nan", "label_car_width_zero", "label_car_width_negative",
         "label_ry_huge"])
def test_malformed_kitti_frame_rejected_at_load(tmp_path, monkeypatch, malform):
    monkeypatch.setenv("BEVFUSE_MODE", "bev_only")     # the KITTI image fits: only the frame fails
    assert main(_kitti_argv(tmp_path, _CALIB, b"", malform)) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def _train_exit(tmp_path, config=None):
    if config is None:
        config = tmp_path / "cfg.yaml"
        _write_mini_config(config)
    out = tmp_path / "o"
    rc = main(["train", "--config", str(config), "--out", str(out)])
    return rc, out.exists()


@pytest.mark.parametrize("key", ["DATA__SYNTHETIC__GROUND_POINTS", "GRID__NX",
                                 "EVAL__AP_POINTS", "DATA__N_SCENES"])
def test_a_size_past_the_machine_exits_2_before_the_run_directory(tmp_path, monkeypatch,
                                                                  capsys, key):
    """10^15 of anything is more than numpy will allocate: the scenes' points,
    the model's raster, or the AP's recall levels and the scene count (both
    bounded at load; the scenes are built one by one, so no allocation fails)."""
    monkeypatch.setenv("BEVFUSE_OPTIMIZER__STEPS", "1")
    monkeypatch.setenv(f"BEVFUSE_{key}", str(10 ** 15))
    assert _train_exit(tmp_path) == (EXIT_CONFIG, False)
    assert "input error" in capsys.readouterr().err


def test_bad_eval_iou_kind_rejected_at_load(tmp_path, monkeypatch):
    monkeypatch.setenv("BEVFUSE_EVAL__IOU_KIND", "foo")
    assert _train_exit(tmp_path) == (EXIT_CONFIG, False)


@pytest.mark.parametrize("key,value", [
    ("VARIANT", "psychic"), ("LOSS__CENTER_NORM", "sideways"),
    ("DATA__SOURCE", "tape"), ("DATA__SYNTHETIC__GROUND_LAYOUT", "spiral"),
    ("EVAL__AP_POINTS", "0"), ("DATA__N_SCENES", "0"), ("EVAL__NMS_MAX_OUT", "0"),
    ("EVAL__NMS_IOU", "0"), ("EVAL__NMS_IOU", "1.5"), ("DATA__SOURCE", "manifest"),
    ("FUSION__INPUT_DIM", "99"), ("FUSION__MAX_DIST", "-1"), ("FUSION__MAX_DIST", ".nan"),
    ("SEED", "-1"), ("DATA__SYNTHETIC__SEED", "-1"),
    ("ANCHOR__SIZE", "[0, 2, 1.6]"), ("ANCHOR__SIZE", "[4, -2, 1.6]"),
    ("ANCHOR__SIZE", "[4, 2, .nan]"), ("GRID__NX", "7"),
    ("DATA__SYNTHETIC__IMAGE_SHAPE", "[2, 7, 8]"), ("OPTIMIZER__STEPS", "abc"),
    ("OPTIMIZER__STEPS", "true"), ("OPTIMIZER__STEPS", "2.5"), ("OPTIMIZER__LR", "fast"),
    ("GRID", "~"), ("DATA__SYNTHETIC", "~"), ("EVAL__SCORE_THRESHOLD", "-0.1"),
    ("EVAL__SCORE_THRESHOLD", "1.5"), ("EVAL__SCORE_THRESHOLD", ".nan"),
    ("OPTIMIZER__LR", "0"), ("OPTIMIZER__LR", "-1"), ("OPTIMIZER__LR", ".inf"),
    ("OPTIMIZER__LR", ".nan"), ("ANCHOR__Z", ".nan"), ("ANCHOR__Z", "-.inf"),
    ("DATA__SYNTHETIC__FOCAL", "[0, 0]"), ("DATA__SYNTHETIC__FOCAL", "[3, .inf]"),
    ("DATA__SYNTHETIC__GROUND_POINTS", "-5"), ("DATA__SYNTHETIC__SURFACE_POINTS_REF", "-1"),
    ("DATA__SYNTHETIC__NOISE_SIGMA", "-1"), ("DATA__SYNTHETIC__NOISE_SIGMA", ".nan"),
    ("DATA__SYNTHETIC__IMAGE_SHAPE", "[0, 24, 48]"),
    ("DATA__SYNTHETIC__OBJECT_COUNT", "[-2, -1]"),
    ("BACKBONE__BEV_GROUPS", "[{layers: 2, channels: 4, stride: 1}, "
                             "{layers: 2, channels: 6, stride: 2}]"),
    ("BACKBONE__IMAGE_GROUPS", "[[2, 4, 1], [2, 6, 2]]"), ("BACKBONE__BEV_GROUPS", "[]"),
    ("BACKBONE__FUSION_POINTS", "[-1]"), ("BACKBONE__FUSION_POINTS", "[0, 0]"),
    ("IMAGE_FEAT_CHANNELS", "-1"), ("IMAGE_FEAT_CHANNELS", "0"), ("BEV_FPN_CHANNELS", "-2"),
    ("BEV_FPN_CHANNELS", "0"),
    ("DATA__SYNTHETIC__X_RANGE", "[5, 2]"), ("DATA__SYNTHETIC__Y_RANGE", "[3, -3]"),
    ("DATA__SYNTHETIC__X_RANGE", "[2, 3]"), ("DATA__SYNTHETIC__X_RANGE", "[2, .inf]"),
    ("OPTIMIZER__BETAS", "[1.0, 0.999]"), ("OPTIMIZER__BETAS", "[0.9, 1.5]"),
    ("OPTIMIZER__BETAS", "[-0.5, 0.999]"), ("OPTIMIZER__EPS", "0"),
    ("OPTIMIZER__EPS", ".nan"), ("OPTIMIZER__EPS", "-1"),
    ("EVAL__IOU_KIND", "3d")])          # 3D AP of the 'bev' variant's anchor-height boxes
def test_bad_config_value_rejected_at_load(tmp_path, monkeypatch, key, value):
    monkeypatch.setenv(f"BEVFUSE_{key}", value)
    assert _train_exit(tmp_path) == (EXIT_CONFIG, False)


@pytest.mark.parametrize("stream,channels", [("bev_groups", 0), ("image_groups", -3)])
def test_bad_group_channels_rejected_at_load(tmp_path, stream, channels):
    cfg = miniature_config()
    getattr(cfg.backbone, stream)[1].channels = channels
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


@pytest.mark.parametrize("layers", [-5, 0, 3, 10 ** 9])
def test_bad_group_layers_rejected_at_load(tmp_path, layers):
    cfg = miniature_config()
    cfg.backbone.bev_groups[0].layers = layers
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


@pytest.mark.parametrize("key,value", [
    ("SCALE_XY", "[0, 0]"), ("SCALE_Z", "[1.1, 0.9]"), ("SCALE_Z", "[1, .inf]"),
    ("IMAGE_SCALE", "[0, 0]"), ("ROTATE_Z_DEG", ".nan"), ("TRANSLATE_XY", ".inf"),
    ("TRANSLATE_Z", "-1"), ("IMAGE_TRANSLATE_PX", ".nan")])
def test_bad_augmentation_rejected_at_load(tmp_path, monkeypatch, key, value):
    cfg = miniature_config()
    cfg.data.augment = AugmentationConfig()
    monkeypatch.setenv(f"BEVFUSE_DATA__AUGMENT__{key}", value)
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


def test_negative_seed_flag_is_config_error(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    out = tmp_path / "o"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"])
    assert rc == EXIT_CONFIG
    assert not out.exists()
    assert main(["gradcheck", "--seed", "-1"]) == EXIT_CONFIG


@pytest.mark.parametrize("rtol", ["nan", "inf", "0", "-1e-4"])
def test_bad_gradcheck_rtol_is_config_error(rtol):
    assert main(["gradcheck", f"--rtol={rtol}"]) == EXIT_CONFIG


def test_report_of_corrupt_metrics_is_config_error(tmp_path):
    (tmp_path / "final_metrics.json").write_text("{")
    assert main(["report", str(tmp_path)]) == EXIT_CONFIG


def test_malformed_yaml_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("{\n")
    assert _train_exit(tmp_path, bad) == (EXIT_CONFIG, False)


def test_malformed_yaml_env_override_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("BEVFUSE_SEED", "{")
    assert _train_exit(tmp_path) == (EXIT_CONFIG, False)


def test_directory_as_config_is_config_error(tmp_path):
    assert _train_exit(tmp_path, tmp_path) == (EXIT_CONFIG, False)


def _write_config(path, cfg):
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f)
    return path


def test_kitti_source_without_frames_is_config_error(tmp_path):
    cfg = miniature_config()
    cfg.data.source = "kitti"
    cfg.data.kitti_frames = []
    rc, _ = _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg))
    assert rc == EXIT_CONFIG


def _truncate_first_record(data):
    index = json.loads((data / "index.json").read_text())
    record = data / f"{index['frames'][0]}.npz"
    record.write_bytes(record.read_bytes()[:-100])


def _edit_first_record(key, edit):
    """A damage that replaces the first record's array ``key`` by ``edit`` of it."""
    def damage(data):
        index = json.loads((data / "index.json").read_text())
        record = data / f"{index['frames'][0]}.npz"
        with np.load(record) as z:
            arrays = dict(z)
        arrays[key] = edit(arrays[key])
        np.savez(record, **arrays)
    return damage


def _first_box(column, value):
    """A damage that sets ``column`` of the first record's first box."""
    def edit(boxes):
        boxes[0, BOX_COLUMNS.index(column)] = value
        return boxes
    return _edit_first_record("boxes", edit)


def _boxes_of_width(columns):
    """A damage that cuts the first record's boxes to ``columns`` columns, or
    pads them with columns of 1."""
    def edit(boxes):
        pad = max(0, columns - boxes.shape[1])
        return np.pad(boxes, ((0, 0), (0, pad)), constant_values=1.0)[:, :columns]
    return _edit_first_record("boxes", edit)


def _index_frames(frames):
    """A damage that sets the index's ``frames`` and keeps its version."""
    def damage(data):
        index = json.loads((data / "index.json").read_text())
        index["frames"] = frames
        (data / "index.json").write_text(json.dumps(index))
    return damage


def _first_frame_twice(data):
    _index_frames(json.loads((data / "index.json").read_text())["frames"] * 2)(data)


def _frame_outside_the_manifest(data):
    """A damage that lists a valid record of another manifest beside this one."""
    save_dataset(generate_dataset(miniature_config().data.synthetic, 1), data.parent / "other")
    other = json.loads((data.parent / "other" / "index.json").read_text())["frames"]
    _index_frames([os.path.join("..", "other", other[0])])(data)


@pytest.mark.parametrize("damage", [
    lambda data: (data / "index.json").write_text("{\"frames\": ["),
    lambda data: (data / "index.json").write_text(json.dumps({"seeds": []})),
    _truncate_first_record, _boxes_of_width(10),
    _edit_first_record("image_features", lambda f: f[:, :0]),
    _edit_first_record("image_features", lambda f: f[:, :, :0]),
    _edit_first_record("intensity", lambda intensity: intensity[1:]),
    _first_box("x", np.inf), _first_box("cls", 1e300), _first_box("w", np.nan),
    _first_box("w", -1.0), _index_frames(5), _index_frames(None),
    _first_box("ignored", 0.5),
    _first_box("x", 2e4), _first_box("t", 1e300), _first_frame_twice,
    _frame_outside_the_manifest],
    ids=["index_not_json", "index_without_frames", "corrupt_record",
         "record_without_height2d_and_is_3d", "image_features_zero_height",
         "image_features_zero_width", "intensity_short", "box_x_inf", "box_cls_huge",
         "box_w_nan", "box_w_negative", "index_frames_int", "index_frames_null",
         "box_ignored_half", "box_x_huge", "box_t_huge", "index_frame_twice",
         "index_frame_outside_the_manifest"])
def test_damaged_manifest_is_config_error(tmp_path, damage):
    assert _damaged_manifest_exit(tmp_path, damage) == (EXIT_CONFIG, False)


def _damaged_manifest_exit(tmp_path, damage):
    """The exit code of a 1-scene manifest run after ``damage``, and whether
    the run directory exists."""
    cfg = miniature_config()
    save_dataset(generate_dataset(cfg.data.synthetic, 1), tmp_path / "data")
    damage(tmp_path / "data")
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    return _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg))


@pytest.mark.parametrize("version,columns", [(1, 10), (None, 10), (2, 12), (3, 11)],
                         ids=["version_1", "no_version", "version_2", "version_3"])
def test_old_manifest_exits_with_version_mismatch(tmp_path, capsys, version, columns):
    cfg = miniature_config()
    data = tmp_path / "data"
    save_dataset(generate_dataset(cfg.data.synthetic, 1), data)
    # version 1 records lack height2d and is_3d; version 2 records hold is_3d;
    # version 3 records hold the camera's image size beside the features
    _boxes_of_width(columns)(data)
    if version == 3:
        record = next(data.glob("*.npz"))
        with np.load(record) as z:
            arrays = dict(z)
        np.savez(record, **arrays, image_size=np.array(arrays["image_features"].shape[1:]))
    index = json.loads((data / "index.json").read_text())
    index.pop("generator_version")
    if version is not None:
        index["generator_version"] = version
    (data / "index.json").write_text(json.dumps(index))
    cfg.data.source = "manifest"
    cfg.data.manifest = str(data)
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)
    err = capsys.readouterr().err
    assert "version mismatch" in err and "boxes must be" not in err


def test_manifest_with_other_image_channels_is_config_error(tmp_path):
    cfg = miniature_config()
    other = replace(cfg.data.synthetic, image_shape=(3, 8, 8))
    save_dataset(generate_dataset(other, 1), tmp_path / "data")
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


def test_manifest_with_two_image_shapes_is_config_error(tmp_path):
    cfg = miniature_config()
    wide = replace(cfg.data.synthetic, image_shape=(2, 8, 16), seed=9)
    save_dataset(generate_dataset(cfg.data.synthetic, 1) + generate_dataset(wide, 1),
                 tmp_path / "data")
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_with_non_finite_image_is_config_error(tmp_path, command):
    cfg = miniature_config()
    data = tmp_path / "data"
    samples = generate_dataset(cfg.data.synthetic, 1)
    checkpoint = tmp_path / "ckpt.bin"
    save_checkpoint(build_model(cfg).parameters(), checkpoint)
    samples[0].image_feature_input[1, 2, 3] = np.nan
    save_dataset(samples, data)
    cfg.data.source = "manifest"
    cfg.data.manifest = str(data)
    argv = [command, "--config", str(_write_config(tmp_path / "cfg.yaml", cfg)),
            "--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--checkpoint", str(checkpoint)]
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,mode,code", [
    ("train", "continuous", EXIT_CONFIG), ("ablate", "continuous", EXIT_CONFIG),
    ("train", "bev_only", EXIT_OK)])
def test_synthetic_image_that_misfits_the_image_stream(tmp_path, command, mode, code):
    cfg = miniature_config()
    cfg.mode = mode
    # 7 rows: the image stream's stride 2 does not divide them
    cfg.data.synthetic = replace(cfg.data.synthetic, image_shape=(2, 7, 8))
    cfg.optimizer.steps = 1
    argv = [command, "--config", str(_write_config(tmp_path / "cfg.yaml", cfg)),
            "--out", str(tmp_path / "o")]
    assert main(argv) == code
    assert (tmp_path / "o").exists() == (code == EXIT_OK)


def test_manifest_images_that_fit_train_whatever_the_synthetic_shape(tmp_path):
    cfg = miniature_config()
    cfg.backbone.image_groups = [GroupSpec(2, 4)] * 5       # stride 16: 8 x 8 misfits
    fitting = replace(cfg.data.synthetic, image_shape=(2, 16, 32))
    save_dataset(generate_dataset(fitting, 1), tmp_path / "data")
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_OK, True)


def test_empty_manifest_is_config_error(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "index.json").write_text(
        json.dumps({"generator_version": GENERATOR_VERSION, "frames": []}))
    cfg = miniature_config()
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


def _config_argv(tmp_path):
    (tmp_path / "cfg.yaml").write_bytes(b"seed: 1\n# caf\xe9\n")
    return ["train", "--config", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "o")]


def _metrics_argv(tmp_path):
    (tmp_path / "final_metrics.json").write_bytes(b'{"ap": 0.5, "note": "caf\xe9"}')
    return ["report", str(tmp_path)]


@pytest.mark.parametrize("argv", [
    _config_argv,
    lambda tmp_path: _kitti_argv(tmp_path, _CALIB + b"# \xff\n", b""),
    lambda tmp_path: _kitti_argv(tmp_path, _CALIB, b"Car \xff\n"),
    _metrics_argv], ids=["config", "kitti_calib", "kitti_labels", "metrics"])
def test_non_utf8_input_is_config_error(tmp_path, argv):
    assert main(argv(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


# the binary fuzz mutates each array of a miniature manifest record in turn
# by each of these, and trains one step on the record
def _set_first(value):
    def edit(a):
        a = a.astype(np.float64)
        a.flat[0] = value
        return a
    return edit


_RECORD_MUTATIONS = {
    "rank_up": lambda a: a[None],
    "rank_down": lambda a: a.reshape(-1, *a.shape[2:]) if a.ndim > 1 else a[0],
    "short": lambda a: a[:-1], "long": lambda a: np.concatenate([a, a[:1]]),
    "nan": _set_first(math.nan), "inf": _set_first(math.inf),
    "-inf": _set_first(-math.inf), "huge": _set_first(1e300), "sign": lambda a: -a,
    "int": lambda a: a.astype(np.int64), "str": lambda a: a.astype(str),
    "object": lambda a: a.astype(object), "empty": lambda a: a[:0],
}
# the mutations that train and exit 0; every other mutation exits 2. Each
# array must hold bool, int or float values, ints reading as floats, in the
# extents its reader takes. LIDAR points may be non-finite (they drop out of
# every raster), nothing reads an intensity's value, and a record may hold
# any number of boxes
_RECORD_ACCEPTED = {
    "points": ("nan", "inf", "-inf", "huge", "sign", "int"),
    "intensity": ("nan", "inf", "-inf", "huge", "sign", "int"),
    "image_features": ("sign", "int"),
    "projection": ("sign", "int"),
    "boxes": ("short", "long", "int", "empty"),
}


def _fuzz_exits(argv, damages):
    """Each damage's name by the exit code of ``argv`` after it. A run
    that raises fails the test, and so does an exit 2 that leaves ``--out``."""
    out = pathlib.Path(argv[argv.index("--out") + 1])
    exits = {0: set(), 2: set(), 3: set()}
    for name, damage in damages:
        damage()
        try:
            rc = main(argv)
        except Exception as e:
            pytest.fail(f"{name} raised {e!r}")
        assert rc in exits, (name, rc)
        assert rc != EXIT_CONFIG or not out.exists(), name
        exits[rc].add(name)
        shutil.rmtree(out, ignore_errors=True)
    return exits


def test_manifest_record_fuzz_exits_cleanly(tmp_path):
    cfg = miniature_config()
    cfg.optimizer.steps = 1
    save_dataset(generate_dataset(cfg.data.synthetic, 1), tmp_path / "data")
    cfg.data.source, cfg.data.manifest = "manifest", str(tmp_path / "data")
    record = next((tmp_path / "data").glob("*.npz"))
    with np.load(record) as z:
        arrays = dict(z)

    def damage(key, mutate):
        return lambda: np.savez(record, **{**arrays, key: mutate(arrays[key])})
    argv = ["train", "--config", str(_write_config(tmp_path / "cfg.yaml", cfg)),
            "--out", str(tmp_path / "o")]
    exits = _fuzz_exits(argv, [
        (f"{key}.{m}", damage(key, mutate))
        for key in arrays for m, mutate in _RECORD_MUTATIONS.items()])
    assert exits[0] == {f"{key}.{m}" for key, ms in _RECORD_ACCEPTED.items() for m in ms}
    assert exits[3] == set()


def test_checkpoint_fuzz_exits_cleanly(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    params = build_model(_write_mini_config(cfg_path)).parameters()
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint(params, ckpt)
    raw = ckpt.read_bytes()
    bounds, at = [], 9      # the offset where each record starts
    for _ in params:
        bounds.append(at)
        at += _first_record(raw[at - 9:])[3] - 9
    assert at == len(raw)

    def write(data):
        return lambda: ckpt.write_bytes(data)

    def huge(name, value):
        def damage():
            p = params[name].data
            keep, p.flat[0] = p.flat[0], value
            save_checkpoint(params, ckpt)
            p.flat[0] = keep
        return damage
    damages = [(f"cut_at_{b}", write(raw[:b])) for b in bounds]
    damages += [("repeated", write(_repeat_first_record(raw))),
                ("version_2", write(raw[:4] + b"\x02" + raw[5:])),
                ("shape_differs", write(_unit_axis_on_first_record(raw))),
                ("renamed", write(raw[:11] + b"~" + raw[12:])),
                ("extents_max", write(_max_extents_on_first_record(raw)))]
    huge_entries = [(name, v) for name in params for v in (1e300, -1e300)]
    damages += [(f"{name} = {v:g}", huge(name, v)) for name, v in huge_entries]
    argv = ["eval", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
            "--checkpoint", str(ckpt)]
    exits = _fuzz_exits(argv, damages)
    # a huge finite parameter evaluates: its boxes may be infinite, never a warning
    assert exits[0] == {f"{name} = {v:g}" for name, v in huge_entries}
    assert exits[3] == set()
