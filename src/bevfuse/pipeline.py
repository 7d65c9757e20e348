"""Config-driven training, evaluation, ablation and gradient-check pipelines.
Everything is deterministic given the config seed."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import losses, tensor as T
from .backbone import (MODES, BackboneConfig, DetectorModel, GroupSpec, group_stride,
                       param_module)
from .config import ExperimentConfig, FusionSection, save_config
from .data import (SceneGenConfig, SceneSample, augment, generate_dataset, load_dataset,
                   load_kitti_frame, make_forward_camera)
from .detect import DetectionBox, decode_detections, nms, regression_rows
from .evaluation import summarize
from .fusion import (FusionConfig, FusionMlp, FusionPlan, continuous_fusion_forward,
                     merge_plans)
from .geometry import BevGrid, PointCloud, voxelize
from .losses import (NEGATIVE, AssignmentConfig, LossBreakdown, hard_negative_mining,
                     total_loss)
from .tensor import (Adam, InputError, Tensor, atomic_write, load_checkpoint,
                     save_checkpoint)


class NumericError(RuntimeError):
    """Training hit a non-finite loss."""


def build_model(cfg: ExperimentConfig, rng: np.random.Generator | None = None) -> DetectorModel:
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    return DetectorModel(
        grid=cfg.grid, backbone=cfg.backbone, fusion_cfg=cfg.fusion,
        image_in_channels=cfg.data.synthetic.image_shape[0],
        image_feat_channels=cfg.image_feat_channels,
        bev_fpn_channels=cfg.bev_fpn_channels,
        header_variant=cfg.variant, anchor=cfg.anchor, mode=cfg.mode, rng=rng)


class _Undrawn:
    """Stands in for the generator of a model whose every parameter is
    loaded next: its draws are zeros, so no random numbers are made."""

    def uniform(self, low, high, size) -> np.ndarray:
        return np.zeros(size)


def build_scenes(cfg: ExperimentConfig) -> list[SceneSample]:
    d = cfg.data
    if d.source == "synthetic":
        scenes = generate_dataset(d.synthetic, d.n_scenes)
    elif d.source == "manifest":
        scenes = load_dataset(d.manifest)
    else:
        scenes = [load_kitti_frame(fr.velodyne, fr.calib, fr.labels)
                  for fr in d.kitti_frames or []]
    if not scenes:
        raise InputError(f"data source {d.source!r} yields no scenes")
    _check_images_fit(cfg, scenes)
    return scenes


def _check_images_fit(cfg: ExperimentConfig, scenes: list[SceneSample]):
    """Raise InputError unless ``cfg.mode`` is bev_only or every scene's
    image fits the image stream. The images must share one shape, because a
    training step stacks them into one batch."""
    if cfg.mode == "bev_only":
        return
    channels = cfg.data.synthetic.image_shape[0]
    stride = group_stride(len(cfg.backbone.image_groups) - 1)
    for s in scenes:
        shape = s.image_feature_input.shape
        if len(shape) != 3 or shape[0] != channels or shape[1] % stride \
                or shape[2] % stride:
            raise InputError(f"scene {s.frame_id}: image {list(shape)} does not fit "
                             f"the image stream ({channels} channels, extents "
                             f"divisible by {stride})")
        if shape != scenes[0].image_feature_input.shape:
            raise InputError(f"scene {s.frame_id}: image {list(shape)} differs from "
                             f"scene {scenes[0].frame_id}'s "
                             f"{list(scenes[0].image_feature_input.shape)}")


@dataclass
class PreparedScene:
    sample: SceneSample
    bev_input: np.ndarray           # nz x ny x nx
    plan: FusionPlan | None
    pos_idx: np.ndarray
    neg_idx: np.ndarray
    reg_targets: np.ndarray         # n_pos x R


def prepare_scene(model: DetectorModel, cfg: ExperimentConfig,
                  sample: SceneSample) -> PreparedScene:
    labels = losses.assign_anchors(model.anchors, sample.gt_boxes, cfg.assignment(),
                                   [cfg.eval.ignores(g) for g in sample.gt_boxes])
    pos_idx = np.flatnonzero(labels >= 0)
    neg_idx = np.flatnonzero(labels == NEGATIVE)
    return PreparedScene(
        sample=sample,
        bev_input=voxelize(sample.cloud, cfg.grid),
        plan=model.make_plans(sample.cloud, sample.cam),
        pos_idx=pos_idx, neg_idx=neg_idx,
        reg_targets=regression_rows(model.header.variant, sample.gt_boxes, labels[pos_idx],
                                    model.anchors[pos_idx], cfg.loss.center_norm,
                                    cfg.loss.wrap_orientation))


def batch_inputs(model: DetectorModel, preps: list[PreparedScene]):
    """The model's inputs for a batch of prepared scenes: N x C x H x W BEV
    and image arrays, and their scene plans joined by ``merge_plans`` (the
    image and plan are None when the model has no image stream)."""
    bev = np.stack([p.bev_input for p in preps])
    if model.image_stream is None:
        return bev, None, None
    image = np.stack([p.sample.image_feature_input for p in preps])
    return bev, image, merge_plans([p.plan for p in preps])


def scene_loss(model: DetectorModel, cfg: ExperimentConfig, preps: list[PreparedScene],
               mining_rngs: list[np.random.Generator]) -> list[LossBreakdown]:
    """Forward a step's scenes as one batch and build each scene's multi-task
    loss breakdown. Scene i mines its negatives on its own slice of the
    scores with ``mining_rngs[i]``."""
    header = model.forward(*batch_inputs(model, preps))
    per_scene, assign = len(model.anchors), cfg.assignment()
    out = []
    for i, prep in enumerate(preps):
        first = i * per_scene
        n_pos = prep.pos_idx.size
        mined = hard_negative_mining(prep.neg_idx, header.scores[first:first + per_scene],
                                     n_pos, assign, mining_rngs[i])
        selected = first + np.concatenate([prep.pos_idx, mined]).astype(np.intp)
        cls_labels = np.concatenate([np.ones(n_pos), np.zeros(mined.size)])
        cls_logits, reg_pred = header.select(selected, n_pos)
        out.append(total_loss(cls_logits, cls_labels, reg_pred, prep.reg_targets,
                              alpha=cfg.loss.alpha))
    return out


def detect_scene(model: DetectorModel, cfg: ExperimentConfig,
                 prep: PreparedScene) -> list[DetectionBox]:
    with T.no_grad():
        header = model.forward(prep.bev_input, prep.sample.image_feature_input,
                               prep.plan)
    boxes = decode_detections(header, model.anchors, center_norm=cfg.loss.center_norm)
    return nms(boxes, iou_threshold=cfg.eval.nms_iou,
               score_threshold=cfg.eval.score_threshold,
               max_out=cfg.eval.nms_max_out)


def evaluate_model(model: DetectorModel, cfg: ExperimentConfig,
                   preps: list[PreparedScene]) -> dict:
    return summarize([(detect_scene(model, cfg, p), p.sample.gt_boxes) for p in preps],
                     cfg.eval)


def _lr_at(step: int, cfg: ExperimentConfig) -> float:
    opt = cfg.optimizer
    lr = opt.lr
    for frac in opt.decay_milestones:
        if step >= frac * opt.steps:
            lr *= opt.decay_factor
    return lr


def scene_source(model: DetectorModel, cfg: ExperimentConfig, scenes: list[SceneSample]):
    """What a training run trains on: ``scenes`` prepared once for ``model``
    (the final evaluation reads these), and a function of step ``s`` giving
    that step's prepared scenes and mining generators. Step ``s`` trains on
    the fixed preps or, with ``data.augment``, on scene ``i`` augmented with
    seed ``[cfg.seed, s, i]`` and then prepared, when the step asks and not
    before. Scene ``i`` mines with ``default_rng([cfg.seed, 7, s, i])``."""
    fixed = [prepare_scene(model, cfg, s) for s in scenes]

    def step_inputs(step: int):
        preps = fixed if cfg.data.augment is None else [
            prepare_scene(model, cfg, augment(s, cfg.data.augment, seed=[cfg.seed, step, i]))
            for i, s in enumerate(scenes)]
        return preps, [np.random.default_rng([cfg.seed, 7, step, i]) for i in range(len(preps))]
    return fixed, step_inputs


def train_run(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Full training run: writes resolved config, per-step loss log, final
    checkpoint and training-set evaluation into ``out_dir``. The data loads
    first, so a bad input leaves no run directory."""
    return _train(cfg, build_scenes(cfg), out_dir)


def _train(cfg: ExperimentConfig, scenes: list[SceneSample], out_dir: str) -> dict:
    """``train_run`` on ``scenes``, loaded and checked by the caller."""
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.yaml"))
    model = build_model(cfg)
    fixed, step_inputs = scene_source(model, cfg, scenes)

    params = model.parameters()
    opt = Adam(params.values(), lr=cfg.optimizer.lr, betas=cfg.optimizer.betas,
               eps=cfg.optimizer.eps)
    log_path = os.path.join(out_dir, "train_log.jsonl")
    first_loss = last_loss = None
    # a NumericError still lands the log: its rows show where training broke
    with atomic_write(log_path, keep_on=NumericError) as log:
        for step in range(cfg.optimizer.steps):
            opt.lr = _lr_at(step, cfg)
            breakdowns = scene_loss(model, cfg, *step_inputs(step))
            total = breakdowns[0].total
            for b in breakdowns[1:]:
                total = total + b.total
            total = total / float(len(breakdowns))
            value = float(total.data)
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss at step {step}")
            rec = {"step": step,
                   "L": value,
                   "L_cls": float(np.mean([b.l_cls for b in breakdowns])),
                   "L_reg": float(np.mean([b.l_reg for b in breakdowns])),
                   "N": int(sum(b.n for b in breakdowns)),
                   "N_pos": int(sum(b.n_pos for b in breakdowns))}
            log.write(json.dumps(rec, sort_keys=True) + "\n")
            first_loss = value if first_loss is None else first_loss
            last_loss = value
            opt.zero_grad()
            total.backward()
            opt.step()
            # every parameter is a view of opt.flat: one pass checks them all
            if not np.isfinite(opt.flat).all():
                name = next(n for n, p in params.items() if not np.isfinite(p.data).all())
                raise NumericError(f"non-finite parameter {name} after step {step}")
            every = cfg.optimizer.checkpoint_every
            if every and (step + 1) % every == 0:
                save_checkpoint(params, os.path.join(out_dir, f"ckpt_{step + 1:06d}.bin"))
    save_checkpoint(params, os.path.join(out_dir, "ckpt_final.bin"))

    report = evaluate_model(model, cfg, fixed)
    report["initial_loss"] = first_loss
    report["final_loss"] = last_loss
    with atomic_write(os.path.join(out_dir, "final_metrics.json")) as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return report


def eval_run(cfg: ExperimentConfig, checkpoint_path: str, out_dir: str) -> dict:
    """Evaluate a checkpoint on the configured dataset. The data and the
    checkpoint load first, so a bad input leaves no run directory."""
    scenes = build_scenes(cfg)
    model = build_model(cfg, _Undrawn())
    model.load_parameters(load_checkpoint(checkpoint_path))
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.yaml"))
    preps = [prepare_scene(model, cfg, s) for s in scenes]
    report = evaluate_model(model, cfg, preps)
    with atomic_write(os.path.join(out_dir, "eval_report.json")) as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return report


ABLATION_VARIANTS = ("bev_only", "discrete", "continuous_nogeo", "continuous")


def ablate_run(cfg: ExperimentConfig, out_dir: str,
               variants=ABLATION_VARIANTS,
               knn_grid: list[FusionSection] | None = None) -> list[dict]:
    """Train each fusion variant (optionally over a grid of fusion sections)
    with the shared seed and data; emit one comparison row per run. Each
    run's directory tag must be its own, and the data loads once and is
    checked against every variant first, so a bad input leaves no output
    directory and every run trains on the data so checked."""
    cells = [(variant, fusion) for variant in variants
             for fusion in (knn_grid if knn_grid and variant.startswith("continuous")
                            else [cfg.fusion])]
    tags = [f"{variant}_k{fusion.k}_d{fusion.max_dist:g}" for variant, fusion in cells]
    for tag in tags:
        if tags.count(tag) > 1:
            raise InputError(f"two ablation runs share the directory {tag!r}")
    scenes = build_scenes(replace(cfg, mode="bev_only"))
    for variant in variants:
        _check_images_fit(replace(cfg, mode=variant), scenes)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for (variant, fusion), tag in zip(cells, tags):
        report = _train(replace(cfg, mode=variant, fusion=fusion), scenes,
                        os.path.join(out_dir, tag))
        rows.append({"variant": variant, "k": fusion.k, "max_dist": fusion.max_dist,
                     "ap": report["ap"], "final_loss": report["final_loss"]})
    with atomic_write(os.path.join(out_dir, "ablation.json")) as f:
        json.dump(rows, f, indent=2, sort_keys=True)
    return rows


# -- gradient-check suite ------------------------------------------------------

def _jitter_biases(params: dict, rng: np.random.Generator):
    """Zero-initialized biases sit exactly on the rectifier kink whenever an
    input patch is all zero, which breaks central differences; move them."""
    for name, p in params.items():
        if name.endswith(("bias", "b1", "b2", "b3")):
            p.data += rng.uniform(0.05, 0.15, p.data.shape) * \
                np.where(rng.random(p.data.shape) < 0.5, -1.0, 1.0)


def _basis(params: Sequence[Tensor]) -> Iterator[list[np.ndarray]]:
    """Every one-hot direction over the entries of ``params``, one array per
    parameter: along these the directional check is the entry-by-entry one."""
    for i, p in enumerate(params):
        for j in range(p.size):
            v = [np.zeros(q.shape) for q in params]
            v[i].flat[j] = 1.0
            yield v


def _max_grad_error(f: Callable[[], Tensor], params: Sequence[Tensor],
                    directions: Iterable[Sequence[np.ndarray]], eps: float) -> float:
    """Backpropagate the scalar ``f()`` once and return the worst relative
    error of ``∇f · v`` against ``(f(θ + εv) - f(θ - εv)) / 2ε`` over the
    ``directions`` ``v`` (one array per parameter). A NaN error is the worst."""
    for p in params:
        p.grad = None
    f().backward()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    orig = [p.data.copy() for p in params]
    errors = []
    for v in directions:
        analytic = sum(float(np.vdot(g, d)) for g, d in zip(grads, v))
        values = []
        for sign in (1.0, -1.0):
            for p, o, d in zip(params, orig, v):
                p.data[...] = o + sign * eps * d
            values.append(f().item())
        for p, o in zip(params, orig):
            p.data[...] = o
        numeric = (values[0] - values[1]) / (2 * eps)
        errors.append(abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8))
    return float(np.max(errors))


def run_gradcheck(rtol: float = 1e-4, seed: int = 0) -> list[tuple[str, float, bool]]:
    """Finite-difference checks for every registered differentiable op (the
    map ops on batches of one and of two), an end-to-end miniature model,
    and directional checks of every module of the full-size model in each
    mode; returns (name, max rel err, passed) rows."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, make_loss, params, directions=None, eps=1e-5):
        directions = _basis(params) if directions is None else directions
        worst = _max_grad_error(make_loss, params, directions, eps)
        results.append((name, worst, worst < rtol))

    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    check("matmul", lambda: (T.matmul(a, b) * T.matmul(a, b)).sum(), [a, b])

    x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    check("conv2d", lambda: (T.conv2d(x, w, stride=2, padding=1) ** 2.0).sum(), [x, w])
    # a 3 x 3 kernel at stride 1 takes the transposed-conv input grad
    check("conv2d_s1", lambda: (T.conv2d(x, w, stride=1, padding=1) ** 2.0).sum(), [x, w])

    e = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    f = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    check("elementwise", lambda: (e * f + e).relu().sum(), [e, f])
    check("concat", lambda: (T.concat([e, f], axis=1) ** 2.0).sum(), [e, f])
    idx = np.array([0, 2, 2, 3])
    check("gather_rows", lambda: (T.gather_rows(e, idx) * T.gather_rows(f, idx)).sum(),
          [e, f])
    check("scatter_add_rows", lambda: (T.scatter_add_rows(e, idx, 6) ** 2.0).sum(), [e])
    bias = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
    check("matmul_bias", lambda: (T.matmul(a, b, bias) ** 2.0).sum(), [a, b, bias])
    cb = Tensor(rng.standard_normal(2), requires_grad=True)
    check("add_channel_bias", lambda: (T.add_channel_bias(x, cb) ** 2.0).sum(), [x, cb])
    check("upsample2x", lambda: (T.upsample2x(x) ** 2.0).sum(), [x])
    fm = Tensor(rng.standard_normal((1, 2, 4, 6)), requires_grad=True)
    uv = rng.uniform(-0.5, 5.5, (12, 2))
    check("bilinear_sample", lambda: (T.bilinear_sample(fm, uv) ** 2.0).sum(), [fm])
    check("reshape_transpose",
          lambda: (x.reshape(5, 5, 2).transpose((2, 0, 1)) ** 2.0).sum(), [x])

    # continuous fusion layer on a tiny instance
    cam = make_forward_camera((6, 8), (3.0, 3.0))
    cloud = PointCloud(rng.uniform([2, -2, 0], [6, 2, 1.5], (5, 3)))
    grid = BevGrid((0, 8), (-4, 4), (0, 2), 4, 4, 1)
    fcfg = FusionConfig(k=2, max_dist=10.0, input_dim=5, output_dim=3)
    img = Tensor(rng.standard_normal((2, 6, 8)), requires_grad=True)
    mlp = FusionMlp(5, 3, rng)
    fusion_params = [img] + list(mlp.parameters().values())
    _jitter_biases(mlp.parameters(), rng)
    check("continuous_fusion",
          lambda: (continuous_fusion_forward(img, cloud, cam, grid, fcfg, mlp) ** 2.0).sum(),
          fusion_params)

    # end-to-end miniature model: 8x8 BEV raster, 2-group streams, 4-point cloud
    mini = miniature_config()
    sample = build_scenes(mini)[0]
    sample.cloud = PointCloud(sample.cloud.points[:4])
    params, loss = _scene_loss_closure(mini, sample, np.random.default_rng(5))
    # check a representative parameter subset (full sweep is minutes-slow)
    check("miniature_end_to_end", loss, [p for _, p in sorted(params.items()) if p.size <= 80])

    # 1 x 1 convs: the transposed-conv input grad at stride 1, _col2im at stride 2
    x1 = Tensor(rng.standard_normal((1, 3, 4, 5)), requires_grad=True)
    w1 = Tensor(rng.standard_normal((2, 3, 1, 1)), requires_grad=True)
    for stride in (1, 2):
        check(f"conv2d_1x1_s{stride}",
              lambda s=stride: (T.conv2d(x1, w1, stride=s) ** 2.0).sum(), [x1, w1])

    # the loss ops: logits out to ±6 and offsets on both sides of the |x| = 1 kink
    logits = Tensor(rng.uniform(-6.0, 6.0, 8), requires_grad=True)
    check("bce_with_logits", lambda: T.bce_with_logits(logits, np.arange(8) % 2), [logits])
    pred = Tensor(rng.uniform(-3.0, 3.0, (4, 3)), requires_grad=True)
    check("smooth_l1_sum", lambda: T.smooth_l1_sum(pred, np.full((4, 3), 0.5)), [pred])

    # the map ops on batches of two non-square maps
    xb = Tensor(rng.standard_normal((2, 2, 5, 7)), requires_grad=True)
    for stride in (1, 2):
        check(f"conv2d_batch_s{stride}",
              lambda s=stride: (T.conv2d(xb, w, stride=s, padding=1) ** 2.0).sum(), [xb, w])
    xb1 = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    check("conv2d_batch_1x1", lambda: (T.conv2d(xb1, w1) ** 2.0).sum(), [xb1, w1])
    check("add_channel_bias_batch", lambda: (T.add_channel_bias(xb, cb) ** 2.0).sum(),
          [xb, cb])
    check("upsample2x_batch", lambda: (T.upsample2x(xb) ** 2.0).sum(), [xb])
    fmb = Tensor(rng.standard_normal((2, 2, 4, 6)), requires_grad=True)
    scene = rng.integers(0, 2, len(uv))
    check("bilinear_sample_batch",
          lambda: (T.bilinear_sample(fmb, uv, scene) ** 2.0).sum(), [fmb])

    # every parameter of the full-size model, one row per module and mode. The
    # model and scene are those of configs/overfit.yaml (the defaults, with its
    # anchor assignment): one scene, 32 x 32 BEV and 24 x 48 image maps. Each
    # module is checked along 4 standard-normal directions, which checks large
    # parameter sets in a few evaluations. ε is 1e-7: on the full-size model,
    # steps of 1e-5 and 1e-6 cross ReLU kinks and read errors up to 6e-2 and 2e-3.
    for mode in MODES:
        full = ExperimentConfig(mode=mode, assign=AssignmentConfig(
            3.0, 3.0, neg_sample_fraction=1.0, topk_neg_floor=1000))
        full.loss.center_norm = "diagonal"
        full.data.n_scenes = 1
        model_rng = np.random.default_rng(11)
        params, loss = _scene_loss_closure(full, build_scenes(full)[0], model_rng)
        modules: dict[str, list[Tensor]] = {}
        for name, p in sorted(params.items()):
            modules.setdefault(param_module(name), []).append(p)
        for module, group in modules.items():
            check(f"model_{mode}.{module}", loss, group,
                  [[model_rng.standard_normal(p.shape) for p in group] for _ in range(4)],
                  1e-7)
    return results


def miniature_config() -> ExperimentConfig:
    cfg = ExperimentConfig(
        grid=BevGrid((0.0, 16.0), (-8.0, 8.0), (0.0, 2.0), 8, 8, 2),
        backbone=BackboneConfig(
            bev_groups=[GroupSpec(2, 4), GroupSpec(2, 6)],
            image_groups=[GroupSpec(2, 4), GroupSpec(2, 6)],
            fusion_points=(0, 1)),
        image_feat_channels=4, bev_fpn_channels=6)
    cfg.data.synthetic = SceneGenConfig(
        x_range=(2.0, 14.0), y_range=(-6.0, 6.0), object_count=(1, 1),
        ground_points=0, surface_points_ref=4, image_shape=(2, 8, 8),
        focal=(3.0, 3.0), seed=3)
    cfg.data.n_scenes = 1
    return cfg


def _scene_loss_closure(cfg: ExperimentConfig, sample: SceneSample,
                        rng: np.random.Generator):
    """A model drawn from ``rng`` with jittered biases, and a closure giving
    the training loss of ``sample`` as ``train_run`` builds it, mined with a
    fresh ``default_rng(1)`` at each call. Mining ranks negatives by live
    scores, which could make the loss piecewise in the parameters. But every
    scene the check builds keeps every negative it samples, so the mined set
    depends only on the generator, and the scores only order it."""
    model = build_model(cfg, rng)
    prep = prepare_scene(model, cfg, sample)
    params = model.parameters()
    _jitter_biases(params, rng)
    return params, lambda: scene_loss(model, cfg, [prep], [np.random.default_rng(1)])[0].total
