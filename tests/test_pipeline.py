import json
import math
import os
import pathlib
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bevfuse import evaluation, fusion, pipeline
from bevfuse import tensor as T
from bevfuse.config import ExperimentConfig, FusionSection, load_config
from bevfuse.data import AugmentationConfig, augment
from bevfuse.detect import NUM_REG, DetectionBox, make_anchors
from bevfuse.losses import AssignmentConfig, hard_negative_mining, total_loss
from bevfuse.pipeline import (ABLATION_VARIANTS, NumericError, ablate_run,
                              batch_inputs, build_model, build_scenes, detect_scene,
                              eval_run, evaluate_model, miniature_config,
                              prepare_scene, scene_loss, train_run)
from bevfuse.tensor import load_checkpoint

OVERFIT_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "overfit.yaml"


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
    prep = prepare_scene(model, cfg, scene)
    assert prep.bev_input.shape == (cfg.grid.nz, cfg.grid.ny, cfg.grid.nx)
    assert prep.reg_targets.shape == (prep.pos_idx.size, 5)
    assert set(prep.pos_idx).isdisjoint(prep.neg_idx)


@pytest.mark.parametrize("variant", sorted(NUM_REG))
@pytest.mark.parametrize("mode", ABLATION_VARIANTS)
def test_model_anchors_give_one_row_per_header_row(mode, variant):
    cfg = replace(_mini(), mode=mode, variant=variant)
    model = build_model(cfg)
    assert np.array_equal(model.anchors,
                          make_anchors(model.output_grid, cfg.anchor.size, cfg.anchor.z))
    prep = prepare_scene(model, cfg, build_scenes(cfg)[0])
    header = model.forward(*batch_inputs(model, [prep]))
    assert header.rows.shape == (len(model.anchors), 1 + NUM_REG[variant])
    # fixed priors: no optimizer step or checkpoint touches them
    assert not any(np.shares_memory(p.data, model.anchors)
                   for p in model.parameters().values())


def test_scene_loss_finite_and_differentiable():
    cfg = _mini()
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    prep = prepare_scene(model, cfg, scene)
    bd, = scene_loss(model, cfg, [prep], [np.random.default_rng(0)])
    assert np.isfinite(bd.total.data)
    bd.total.backward()
    grads = [p.grad for p in model.parameters().values() if p.grad is not None]
    assert grads


def _square(t, grad_scale):
    """t², with its backward scaled by ``grad_scale`` (1.0 is the true grad)."""
    node, td = t._node, t.data
    return T.Tensor._result(td ** 2, (t,), "square",
                            lambda g: node.accumulate(grad_scale * 2.0 * td * g))


@pytest.mark.parametrize("grad_scale", [1.0, 1.5, np.nan])
def test_gradient_check_reads_a_wrong_backward(grad_scale):
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def loss():
        return (_square(x, grad_scale) * y).sum()
    random = [[rng.standard_normal(p.shape) for p in (x, y)] for _ in range(4)]
    for directions, eps in ((pipeline._basis([x, y]), 1e-5), (random, 1e-7)):
        err = pipeline._max_grad_error(loss, [x, y], directions, eps)
        if grad_scale == 1.0:
            assert err < 1e-6
        else:
            assert not err < 0.1        # a NaN error fails every tolerance


def _one_hot_scene_loss(model, cfg, prep, mined):
    """Reference header selection: gather rows, then multiply by one-hot
    column selectors."""
    header = model.forward(prep.bev_input, prep.sample.image_feature_input,
                           prep.plan)
    flat, r = header.rows, header.num_reg
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
    # the miniature radii, with a top-k that cuts the sampled negatives
    cfg.assign = replace(cfg.assignment(), neg_sample_fraction=0.5, topk_neg_ratio=0.0,
                         topk_neg_floor=20)
    model = build_model(cfg)
    sample = build_scenes(cfg)[0]
    # the scene, and the same scene with its ground truth removed: no positives
    full, empty = (prepare_scene(model, cfg, s) for s in (sample, replace(sample, gt_boxes=[])))
    assert full.pos_idx.size > 0 and empty.pos_idx.size == 0
    params = model.parameters()
    for prep in (full, empty):
        with T.no_grad():
            scores = model.forward(*batch_inputs(model, [prep])).scores
        mined = hard_negative_mining(prep.neg_idx, scores, prep.pos_idx.size,
                                     cfg.assignment(), np.random.default_rng(0))
        assert mined.size == 20 < math.ceil(0.5 * prep.neg_idx.size)
        for p in params.values():
            p.grad = None
        loss = scene_loss(model, cfg, [prep], [np.random.default_rng(0)])[0].total
        loss.backward()
        grads = {n: p.grad.copy() for n, p in params.items()}
        for p in params.values():
            p.grad = None
        ref = _one_hot_scene_loss(model, cfg, prep, mined)
        ref.backward()
        assert loss.data.tobytes() == ref.data.tobytes()
        for name, p in params.items():
            assert grads[name].tobytes() == p.grad.tobytes(), name


@pytest.mark.parametrize("mode", ABLATION_VARIANTS)
def test_batched_forward_equals_one_scene_forwards(mode):
    cfg = replace(load_config(OVERFIT_CONFIG), mode=mode)
    model = build_model(cfg)
    preps = [prepare_scene(model, cfg, s) for s in build_scenes(cfg)]
    batch = model.forward(*batch_inputs(model, preps)).raw.data
    assert batch.shape[0] == len(preps) == 4
    rngs = [np.random.default_rng(i) for i in range(len(preps))]
    losses = scene_loss(model, cfg, preps, rngs)
    for i, prep in enumerate(preps):
        one = model.forward(prep.bev_input, prep.sample.image_feature_input, prep.plan)
        # one scene's C x H x W inputs are its batch of one, to the byte
        one_batch = model.forward(prep.bev_input[None],
                                  prep.sample.image_feature_input[None], prep.plan)
        assert one.raw.shape == one_batch.raw.shape == (1, *batch.shape[1:])
        assert one.raw.data.tobytes() == one_batch.raw.data.tobytes()
        assert np.abs(batch[i] - one.raw.data).max() <= 1e-12 * np.abs(one.raw.data).max()
        alone, = scene_loss(model, cfg, [prep], [np.random.default_rng(i)])
        assert (losses[i].n, losses[i].n_pos) == (alone.n, alone.n_pos)
        assert abs(losses[i].total.item() - alone.total.item()) \
            <= 1e-12 * abs(alone.total.item())


def _per_pair_forward(model, bev, image, plan):
    """``DetectorModel.forward`` with the image sampled per pair and per
    level: each level samples its own pairs' uv, point rows repeated."""
    fused = {}
    if model.image_stream is not None:
        features = model.image_stream.forward(T.Tensor(image))
        n = features.shape[0]
        for p, mlp in model.fusion_mlps.items():
            level = plan.levels[p]
            span = slice(level.start, level.stop)
            point = plan.pair_point[span]
            sampled = T.bilinear_sample(features, plan.point_uv[point], plan.point_scene[point])
            h = mlp.forward(T.concat([sampled, T.Tensor(plan.pair_offset[span])], axis=1))
            out = T.scatter_add_rows(h, plan.pair_pixel[span], n * level.ny * level.nx)
            fused[p] = out.reshape(n, level.ny, level.nx, mlp.output_dim).transpose(
                (0, 3, 1, 2))
    x, outs = T.Tensor(bev), []
    for gi, group in enumerate(model.bev_groups):
        x = group.forward(x)
        if gi in fused:
            x = x + fused[gi]
        outs.append(x)
    return model.header.forward(model.bev_combiner.forward(outs[-model.num_combined:]))


@pytest.mark.parametrize("mode", ABLATION_VARIANTS)
def test_fusion_projects_and_samples_once(monkeypatch, mode):
    """One projection per scene plan and one image sample per forward, with
    the forward equal to sampling every pair on every level. An augmented
    step samples the image only there: its warps run no tape op."""
    cfg = replace(load_config(OVERFIT_CONFIG), mode=mode)
    model = build_model(cfg)
    projections, samples = [], []
    project, sample = fusion.project_points, T.bilinear_sample
    monkeypatch.setattr(fusion, "project_points",
                        lambda *a: projections.append(1) or project(*a))
    monkeypatch.setattr(T, "bilinear_sample", lambda *a: samples.append(1) or sample(*a))
    preps = [prepare_scene(model, cfg, augment(s, AugmentationConfig(), seed=[cfg.seed, 0, i]))
             for i, s in enumerate(build_scenes(cfg))]
    fuses = mode != "bev_only"
    assert len(projections) == fuses * len(preps) and len(preps) == 4
    inputs = batch_inputs(model, preps)
    batch = model.forward(*inputs).raw.data
    assert len(samples) == fuses
    assert np.array_equal(batch, _per_pair_forward(model, *inputs).raw.data)


def test_evaluate_model_matches_each_frame_once(monkeypatch):
    cfg = _mini()
    box = DetectionBox(5.0, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0, score=0.9)
    preps = [SimpleNamespace(dets=[box], sample=SimpleNamespace(gt_boxes=[box]))
             for _ in range(3)]
    monkeypatch.setattr(pipeline, "detect_scene", lambda model, cfg, p: p.dets)
    calls = []
    match = evaluation.match_detections

    def counting_match(*args):
        calls.append(1)
        return match(*args)
    monkeypatch.setattr(evaluation, "match_detections", counting_match)
    report = evaluate_model(None, cfg, preps)
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


def test_failed_rerun_keeps_the_finished_log(tmp_path, monkeypatch):
    cfg, run = _mini(steps=3), tmp_path / "run"
    train_run(cfg, run)
    log = (run / "train_log.jsonl").read_bytes()
    step = T.Adam.step

    def failing_at_step_1(error):           # after step 1's row is written
        calls = []

        def failing(opt):
            calls.append(opt)
            if len(calls) == 2:
                raise error
            step(opt)
        return failing
    monkeypatch.setattr(T.Adam, "step", failing_at_step_1(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        train_run(cfg, run)
    assert (run / "train_log.jsonl").read_bytes() == log
    assert not [n for n in os.listdir(run) if n.endswith(".tmp")]
    # a NumericError ends the run too, but its rows up to the failure land
    monkeypatch.setattr(T.Adam, "step", failing_at_step_1(NumericError("nan")))
    with pytest.raises(NumericError):
        train_run(cfg, run)
    assert (run / "train_log.jsonl").read_bytes() == b"".join(log.splitlines(True)[:2])
    assert not [n for n in os.listdir(run) if n.endswith(".tmp")]


def test_a_nan_planted_after_a_step_names_its_parameter(tmp_path, monkeypatch):
    cfg = _mini(steps=3)
    names = list(build_model(cfg).parameters())
    step = T.Adam.step

    def planting(opt):
        step(opt)
        if opt.t == 2:
            opt.params[7].data.flat[-1] = np.nan
    monkeypatch.setattr(T.Adam, "step", planting)
    message = rf"non-finite parameter {re.escape(names[7])} after step 1$"
    with pytest.raises(NumericError, match=message):
        train_run(cfg, tmp_path / "run")


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


def test_eval_run_reproduces_training_eval(tmp_path, monkeypatch):
    cfg = _mini(steps=3)
    report = train_run(cfg, tmp_path / "run")
    # every parameter is loaded from the checkpoint, so none is drawn first
    draws, draw = [], fusion.xavier_uniform      # every conv and MLP weight's
    monkeypatch.setattr(fusion, "xavier_uniform", lambda rng, *a, **kw:
                        draws.append(type(rng)) or draw(rng, *a, **kw))
    eval_report = eval_run(cfg, tmp_path / "run" / "ckpt_final.bin",
                           tmp_path / "eval")
    assert draws and np.random.Generator not in draws
    assert {k: report[k] for k in eval_report} == eval_report


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
    monkeypatch.setattr(pipeline, "detect_scene", lambda model, cfg, p: p.dets)
    report = evaluate_model(None, cfg, preps)
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


def test_ablate_cells_sharing_a_directory_fail_before_any_data(tmp_path, monkeypatch):
    def no_data(cfg):
        raise AssertionError("data loaded")
    monkeypatch.setattr(pipeline, "build_scenes", no_data)
    with pytest.raises(T.InputError, match="continuous_k1_d2"):
        ablate_run(_mini(steps=1), tmp_path / "abl", variants=("continuous",),
                   knn_grid=[FusionSection(1, 2.0), FusionSection(1, 2.0000001)])
    assert not (tmp_path / "abl").exists()


def test_augmentation_changes_training(tmp_path):
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


@pytest.mark.parametrize("mode", ["continuous", "bev_only"])
def test_a_step_that_selects_no_anchor_trains(tmp_path, mode):
    """No objects and a zero negative floor select no anchor. The loss is 0
    on the tape, every parameter takes an all-zero grad, and Adam's step
    leaves every parameter as it was."""
    cfg = replace(_mini(steps=2), mode=mode,
                  assign=AssignmentConfig(3.0, 3.0, topk_neg_floor=0))
    cfg.data.synthetic.object_count = (0, 0)
    model = build_model(cfg)
    prep = prepare_scene(model, cfg, build_scenes(cfg)[0])
    bd, = scene_loss(model, cfg, [prep], [np.random.default_rng(0)])
    assert bd.total.item() == 0.0 and bd.n == 0
    params = model.parameters()
    opt = T.Adam(params.values())
    bd.total.backward()
    before = {n: p.data.tobytes() for n, p in params.items()}
    for p in params.values():
        assert p.grad is not None and not p.grad.any()
    opt.step()
    assert {n: p.data.tobytes() for n, p in params.items()} == before
    train_run(cfg, tmp_path / "run")
    rows = [json.loads(line)
            for line in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
    assert [(r["L"], r["N"]) for r in rows] == [(0.0, 0), (0.0, 0)]


@pytest.mark.parametrize("mode", ["continuous", "continuous_nogeo", "discrete"])
def test_huge_cloud_values_plan_without_numeric_warnings(tmp_path, mode):
    """``noise_sigma: 1e308`` is in its domain. The points it throws to inf
    or beyond the integer range drop out of fusion planning without an
    undefined float-to-int cast or an overflow warning."""
    cfg = _mini(steps=2)
    cfg.mode = mode
    cfg.data.synthetic.noise_sigma = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = train_run(cfg, tmp_path / "run")
    assert np.isfinite(report["final_loss"])


def test_resolved_config_round_trips(tmp_path):
    cfg = _mini(steps=1)
    train_run(cfg, tmp_path / "run")
    loaded = load_config(tmp_path / "run" / "config.yaml")
    assert loaded == cfg
