import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from bevfuse import evaluation, pipeline
from bevfuse import tensor as T
from bevfuse.config import ExperimentConfig, FusionSection, load_config
from bevfuse.detect import DetectionBox, make_anchors
from bevfuse.losses import hard_negative_mining, total_loss
from bevfuse.pipeline import (ABLATION_VARIANTS, NumericError, ablate_run,
                              build_model, build_scenes, detect_scene,
                              eval_run, evaluate_model, miniature_config,
                              prepare_scene, scene_loss, train_run)
from bevfuse.tensor import load_checkpoint


def _mini(steps=3):
    cfg = miniature_config()
    cfg.optimizer.steps = steps
    return cfg


def test_build_scenes_synthetic_count():
    cfg = _mini()
    cfg.data.n_scenes = 2
    assert len(build_scenes(cfg)) == 2


def test_prepare_scene_labels_shapes():
    cfg = _mini()
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    anchors = make_anchors(model.output_grid, cfg.anchor.size, cfg.anchor.z)
    prep = prepare_scene(model, cfg, anchors, scene)
    assert prep.bev_input.shape == (cfg.grid.nz, cfg.grid.ny, cfg.grid.nx)
    assert prep.reg_targets.shape == (prep.pos_idx.size, 5)
    assert set(prep.pos_idx).isdisjoint(prep.neg_idx)


def test_scene_loss_finite_and_differentiable():
    cfg = _mini()
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    anchors = make_anchors(model.output_grid, cfg.anchor.size, cfg.anchor.z)
    prep = prepare_scene(model, cfg, anchors, scene)
    bd = scene_loss(model, cfg, prep, np.random.default_rng(0))
    assert np.isfinite(bd.total.data)
    bd.total.backward()
    grads = [p.grad for p in model.parameters().values() if p.grad is not None]
    assert grads


def _one_hot_scene_loss(model, cfg, prep, mined):
    """Reference header selection: gather rows, then multiply by one-hot
    column selectors."""
    header = model.forward(prep.bev_input, prep.sample.image_feature_input,
                           prep.plans)
    flat, r = header.flat(), header.num_reg
    e_cls = np.zeros((1 + r, 1))
    e_cls[0, 0] = 1.0
    e_reg = np.zeros((1 + r, r))
    e_reg[1:] = np.eye(r)
    selected = np.concatenate([prep.pos_idx, mined]).astype(np.intp)
    labels = np.concatenate([np.ones(prep.pos_idx.size), np.zeros(mined.size)])
    logits = T.matmul(T.gather_rows(flat, selected), T.Tensor(e_cls))
    reg = T.matmul(T.gather_rows(flat, prep.pos_idx), T.Tensor(e_reg))
    return total_loss(logits.reshape(selected.size), labels, reg,
                      prep.reg_targets, alpha=cfg.loss.alpha).total


@pytest.mark.parametrize("variant", ["bev", "kitti3d"])
def test_scene_loss_matches_one_hot_selection_bitwise(variant):
    cfg = _mini()
    cfg.variant = variant
    model = build_model(cfg)
    anchors = make_anchors(model.output_grid, cfg.anchor.size, cfg.anchor.z)
    prep = prepare_scene(model, cfg, anchors, build_scenes(cfg)[0])
    assert prep.pos_idx.size > 0
    params = model.parameters()
    scores = np.random.default_rng(2).random(len(anchors))
    mined = hard_negative_mining(prep.neg_idx, scores, 20, 0.5,
                                 np.random.default_rng(3))

    loss = scene_loss(model, cfg, prep, np.random.default_rng(0),
                      mined_override=mined).total
    loss.backward()
    grads = {n: p.grad.copy() for n, p in params.items()}
    for p in params.values():
        p.grad = None
    ref = _one_hot_scene_loss(model, cfg, prep, mined)
    ref.backward()
    assert loss.data.tobytes() == ref.data.tobytes()
    for name, p in params.items():
        assert grads[name].tobytes() == p.grad.tobytes(), name


def test_evaluate_model_matches_each_frame_once(monkeypatch):
    cfg = _mini()
    box = DetectionBox(5.0, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0, score=0.9)
    preps = [SimpleNamespace(dets=[box], sample=SimpleNamespace(gt_boxes=[box]))
             for _ in range(3)]
    monkeypatch.setattr(pipeline, "detect_scene", lambda model, cfg, anchors, p: p.dets)
    calls = []
    match = evaluation.match_detections

    def counting_match(*args):
        calls.append(1)
        return match(*args)
    monkeypatch.setattr(evaluation, "match_detections", counting_match)
    report = evaluate_model(None, cfg, [], preps)
    assert report["ap"] == 1.0 and "pr_curve" in report
    assert len(calls) == len(preps)


def test_train_run_decreases_loss(tmp_path):
    cfg = _mini(steps=25)
    report = train_run(cfg, tmp_path / "run")
    assert report["final_loss"] < report["initial_loss"]


def test_train_log_schema_and_length(tmp_path):
    cfg = _mini(steps=4)
    train_run(cfg, tmp_path / "run")
    lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 4
    steps = [json.loads(l)["step"] for l in lines]
    assert steps == [0, 1, 2, 3]


def test_checkpoint_every(tmp_path):
    cfg = _mini(steps=4)
    cfg.optimizer.checkpoint_every = 2
    train_run(cfg, tmp_path / "run")
    assert (tmp_path / "run" / "ckpt_000002.bin").exists()
    assert (tmp_path / "run" / "ckpt_000004.bin").exists()


def test_determinism_bit_identical(tmp_path):
    cfg = _mini(steps=5)
    train_run(cfg, tmp_path / "a")
    train_run(cfg, tmp_path / "b")
    for name in ("ckpt_final.bin", "train_log.jsonl", "final_metrics.json",
                 "config.yaml"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name


def test_eval_run_reproduces_training_eval(tmp_path):
    cfg = _mini(steps=3)
    report = train_run(cfg, tmp_path / "run")
    eval_report = eval_run(cfg, tmp_path / "run" / "ckpt_final.bin",
                           tmp_path / "eval")
    assert eval_report["ap"] == report["ap"]


def test_evaluate_model_report_fields(tmp_path):
    cfg = _mini(steps=2)
    cfg.eval.range_bins = [(0.0, 8.0), (8.0, 16.0)]
    report = train_run(cfg, tmp_path / "run")
    assert {"ap", "num_frames", "num_gt", "num_detections",
            "iou_threshold"} <= set(report)
    assert len(report["range_ap"]) == 2


def test_range_ap_does_not_match_across_frames(monkeypatch):
    cfg = _mini()
    cfg.eval.range_bins = [(0.0, 16.0)]
    box = DetectionBox(5.0, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0, score=0.9)
    # the ground truth sits in frame A, the only detection in frame B
    preps = [SimpleNamespace(dets=[], sample=SimpleNamespace(gt_boxes=[box])),
             SimpleNamespace(dets=[box], sample=SimpleNamespace(gt_boxes=[]))]
    monkeypatch.setattr(pipeline, "detect_scene", lambda model, cfg, anchors, p: p.dets)
    report = evaluate_model(None, cfg, [], preps)
    assert report["ap"] == 0.0
    assert report["range_ap"] == [{"bin": [0.0, 16.0], "ap": 0.0}]


def test_ablate_run_covers_variants(tmp_path):
    cfg = _mini(steps=2)
    rows = ablate_run(cfg, tmp_path / "abl")
    assert [r["variant"] for r in rows] == list(ABLATION_VARIANTS)
    assert (tmp_path / "abl" / "ablation.json").exists()
    for r in rows:
        assert (tmp_path / "abl" / f"{r['variant']}_k{r['k']}_d{r['max_dist']:g}"
                / "ckpt_final.bin").exists()


def test_ablate_knn_grid_expands_continuous_only(tmp_path):
    cfg = _mini(steps=1)
    rows = ablate_run(cfg, tmp_path / "abl", variants=("bev_only", "continuous"),
                      knn_grid=[FusionSection(1, 10.0), FusionSection(2, 2.0)])
    variants = [(r["variant"], r["k"], r["max_dist"]) for r in rows]
    assert variants == [("bev_only", 1, 10.0), ("continuous", 1, 10.0),
                        ("continuous", 2, 2.0)]


def test_augmentation_changes_training(tmp_path):
    from bevfuse.data import AugmentationConfig
    cfg_a = _mini(steps=3)
    train_run(cfg_a, tmp_path / "plain")
    cfg_b = _mini(steps=3)
    cfg_b.data.augment = AugmentationConfig()
    train_run(cfg_b, tmp_path / "aug")
    assert (tmp_path / "plain" / "train_log.jsonl").read_bytes() != \
           (tmp_path / "aug" / "train_log.jsonl").read_bytes()


@pytest.mark.parametrize("mode,scenes", [
    ("continuous_nogeo", "augmented"), ("discrete", "augmented"),
    ("continuous", "no_points"), ("continuous_nogeo", "no_points"),
    ("discrete", "no_points")])
def test_empty_fusion_plans_still_train(tmp_path, mode, scenes):
    """A fusion level with no pairs in any scene still gives every parameter
    a (zero) gradient, so Adam can step."""
    from bevfuse.data import AugmentationConfig
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "overfit.yaml"), environ={})
    cfg.mode = mode
    cfg.optimizer.steps = 2
    if scenes == "augmented":
        cfg.data.augment = AugmentationConfig()
    else:
        cfg.data.synthetic.ground_points = 0
        cfg.data.synthetic.occlusion_fraction = 1.0
    report = train_run(cfg, tmp_path / "run")
    assert np.isfinite(report["final_loss"])


def test_resolved_config_round_trips(tmp_path):
    cfg = _mini(steps=1)
    train_run(cfg, tmp_path / "run")
    loaded = load_config(tmp_path / "run" / "config.yaml")
    assert loaded == cfg
