import json
import os

import numpy as np
import pytest
import yaml

from bevfuse.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from bevfuse.config import config_to_dict
from bevfuse.data import generate_dataset, save_dataset
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


def test_bad_checkpoint_magic_is_config_error(tmp_path):
    assert _eval_damaged_checkpoint(tmp_path, lambda raw: b"XXXX" + raw[4:]) == EXIT_CONFIG


def test_malformed_calib_is_config_error(tmp_path):
    (tmp_path / "f.bin").write_bytes(np.zeros((2, 4), dtype=np.float32).tobytes())
    (tmp_path / "calib.txt").write_text("P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
                                        "R0_rect: 1 0 0 0 1 0 0 0 1\n")
    (tmp_path / "label.txt").write_text("")
    cfg_path = tmp_path / "cfg.yaml"
    cfg = miniature_config()
    cfg.data.source = "kitti"
    cfg.data.kitti_frames = [{"velodyne": str(tmp_path / "f.bin"),
                              "calib": str(tmp_path / "calib.txt"),
                              "labels": str(tmp_path / "label.txt")}]
    with open(cfg_path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f)
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


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
    ("OPTIMIZER__LR", ".nan"), ("ANCHOR__Z", ".nan"), ("ANCHOR__Z", "-.inf")])
def test_bad_config_value_rejected_at_load(tmp_path, monkeypatch, key, value):
    monkeypatch.setenv(f"BEVFUSE_{key}", value)
    assert _train_exit(tmp_path) == (EXIT_CONFIG, False)


def test_negative_seed_flag_is_config_error(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    _write_mini_config(cfg_path)
    out = tmp_path / "o"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"])
    assert rc == EXIT_CONFIG
    assert not out.exists()
    assert main(["gradcheck", "--seed", "-1"]) == EXIT_CONFIG


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
    rc, _ = _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg))
    assert rc == EXIT_CONFIG


def test_empty_manifest_is_config_error(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "index.json").write_text(json.dumps({"frames": []}))
    cfg = miniature_config()
    cfg.data.source = "manifest"
    cfg.data.manifest = str(tmp_path / "data")
    rc, _ = _train_exit(tmp_path, _write_config(tmp_path / "cfg.yaml", cfg))
    assert rc == EXIT_CONFIG
