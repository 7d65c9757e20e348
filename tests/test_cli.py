import json
import os
from dataclasses import replace

import numpy as np
import pytest
import yaml

from bevfuse.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from bevfuse.config import config_to_dict
from bevfuse.data import AugmentationConfig, generate_dataset, save_dataset
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


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--rtol", "1e-3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


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


def test_malformed_calib_is_config_error(tmp_path):
    calib = b"P2: 1 0 0 0 0 1 0 0 0 0 1 0\nR0_rect: 1 0 0 0 1 0 0 0 1\n"
    assert main(_kitti_argv(tmp_path, calib, b"")) == EXIT_CONFIG


@pytest.mark.parametrize("malform", [
    lambda frame: "abc", lambda frame: {k: frame[k] for k in ("velodyne", "calib")},
    lambda frame: {**frame, "image": frame["velodyne"]},
    lambda frame: {**frame, "labels": [frame["labels"]]}],
    ids=["not_a_mapping", "no_labels", "extra_key", "path_not_a_string"])
def test_malformed_kitti_frame_rejected_at_load(tmp_path, malform):
    assert main(_kitti_argv(tmp_path, _CALIB, b"", malform)) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def _train_exit(tmp_path, config=None):
    if config is None:
        config = tmp_path / "cfg.yaml"
        _write_mini_config(config)
    out = tmp_path / "o"
    rc = main(["train", "--config", str(config), "--out", str(out)])
    return rc, out.exists()


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
    ("BACKBONE__FUSION_POINTS", "[-1]"), ("IMAGE_FEAT_CHANNELS", "-1"),
    ("IMAGE_FEAT_CHANNELS", "0"), ("BEV_FPN_CHANNELS", "-2"), ("BEV_FPN_CHANNELS", "0"),
    ("DATA__SYNTHETIC__X_RANGE", "[5, 2]"), ("DATA__SYNTHETIC__Y_RANGE", "[3, -3]"),
    ("DATA__SYNTHETIC__X_RANGE", "[2, 3]"), ("DATA__SYNTHETIC__X_RANGE", "[2, .inf]"),
    ("OPTIMIZER__BETAS", "[1.0, 0.999]"), ("OPTIMIZER__BETAS", "[0.9, 1.5]"),
    ("OPTIMIZER__BETAS", "[-0.5, 0.999]"), ("OPTIMIZER__EPS", "0"),
    ("OPTIMIZER__EPS", ".nan"), ("OPTIMIZER__EPS", "-1")])
def test_bad_config_value_rejected_at_load(tmp_path, monkeypatch, key, value):
    monkeypatch.setenv(f"BEVFUSE_{key}", value)
    assert _train_exit(tmp_path) == (EXIT_CONFIG, False)


@pytest.mark.parametrize("stream,channels", [("bev_groups", 0), ("image_groups", -3)])
def test_bad_group_channels_rejected_at_load(tmp_path, stream, channels):
    cfg = miniature_config()
    getattr(cfg.backbone, stream)[1].channels = channels
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


@pytest.mark.parametrize("layers", [-5, 0, 3])
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


@pytest.mark.parametrize("damage", [
    lambda data: (data / "index.json").write_text("{\"frames\": ["),
    lambda data: (data / "index.json").write_text(json.dumps({"seeds": []})),
    _truncate_first_record], ids=["index_not_json", "index_without_frames",
                                  "corrupt_record"])
def test_damaged_manifest_is_config_error(tmp_path, damage):
    cfg = miniature_config()
    save_dataset(generate_dataset(cfg.data.synthetic, 1), tmp_path / "data")
    damage(tmp_path / "data")
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


def test_manifest_with_other_image_channels_is_config_error(tmp_path):
    cfg = miniature_config()
    other = replace(cfg.data.synthetic, image_shape=(3, 8, 8))
    save_dataset(generate_dataset(other, 1), tmp_path / "data")
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    assert _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg)) == \
        (EXIT_CONFIG, False)


def test_empty_manifest_is_config_error(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "index.json").write_text(json.dumps({"frames": []}))
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
