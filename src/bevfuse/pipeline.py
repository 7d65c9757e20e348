"""Config-driven training, evaluation, ablation and gradient-check pipelines.
Everything is deterministic given the config seed."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import losses, tensor as T
from .backbone import DetectorModel, group_stride
from .config import ExperimentConfig, FusionSection
from .data import (SceneSample, augment, generate_dataset, load_dataset,
                   load_kitti_frame)
from .detect import DetectionBox, decode_detections, make_anchors, nms, regression_rows
from .evaluation import evaluate_pr, piecewise_range_ap
from .fusion import FusionConfig, FusionMlp, FusionPlan, continuous_fusion_forward
from .geometry import BevGrid, PointCloud, voxelize
from .losses import NEGATIVE, hard_negative_mining, total_loss
from .tensor import Adam, InputError, Tensor, atomic_write, save_checkpoint


class NumericError(RuntimeError):
    """Training hit a non-finite loss."""


def build_model(cfg: ExperimentConfig, rng: np.random.Generator | None = None) -> DetectorModel:
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    return DetectorModel(
        grid=cfg.grid, backbone=cfg.backbone, fusion_cfg=cfg.fusion,
        image_in_channels=cfg.data.synthetic.image_shape[0],
        image_feat_channels=cfg.image_feat_channels,
        bev_fpn_channels=cfg.bev_fpn_channels,
        header_variant=cfg.variant, mode=cfg.mode, rng=rng)


def build_scenes(cfg: ExperimentConfig) -> list[SceneSample]:
    d = cfg.data
    if d.source == "synthetic":
        scenes = generate_dataset(d.synthetic, d.n_scenes)
    elif d.source == "manifest":
        scenes = load_dataset(d.manifest)
    elif d.source == "kitti":
        scenes = [load_kitti_frame(fr["velodyne"], fr["calib"], fr["labels"])
                  for fr in d.kitti_frames or []]
    else:
        raise ValueError(f"unknown data source {d.source!r}")
    if not scenes:
        raise InputError(f"data source {d.source!r} yields no scenes")
    _check_images_fit(cfg, scenes)
    return scenes


def _check_images_fit(cfg: ExperimentConfig, scenes: list[SceneSample]):
    """Raise InputError unless ``cfg.mode`` is bev_only or every scene's
    image fits the image stream."""
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


@dataclass
class PreparedScene:
    sample: SceneSample
    bev_input: Tensor
    plans: dict[int, FusionPlan]
    pos_idx: np.ndarray
    neg_idx: np.ndarray
    reg_targets: np.ndarray         # n_pos x R


def prepare_scene(model: DetectorModel, cfg: ExperimentConfig,
                  anchors: np.ndarray, sample: SceneSample) -> PreparedScene:
    labels = losses.assign_anchors(anchors, sample.gt_boxes, cfg.assignment())
    pos_idx = np.flatnonzero(labels >= 0)
    neg_idx = np.flatnonzero(labels == NEGATIVE)
    return PreparedScene(
        sample=sample,
        bev_input=voxelize(sample.cloud, cfg.grid),
        plans=model.make_plans(sample.cloud, sample.cam),
        pos_idx=pos_idx, neg_idx=neg_idx,
        reg_targets=regression_rows(cfg.variant, sample.gt_boxes, labels[pos_idx],
                                    anchors[pos_idx], cfg.loss.center_norm,
                                    cfg.loss.wrap_orientation))


def scene_loss(model: DetectorModel, cfg: ExperimentConfig, prep: PreparedScene,
               mining_rng: np.random.Generator,
               mined_override: np.ndarray | None = None):
    """Forward one scene and build its multi-task loss breakdown."""
    header = model.forward(prep.bev_input, prep.sample.image_feature_input,
                           prep.plans)
    flat = header.flat()
    n_pos = prep.pos_idx.size
    if mined_override is not None:
        mined = mined_override
    else:
        scores_np = T.logistic(flat.data[:, 0])
        k = cfg.assignment().topk(n_pos)
        mined = hard_negative_mining(prep.neg_idx, scores_np, k,
                                     cfg.assignment().neg_sample_fraction,
                                     mining_rng)
    selected = np.concatenate([prep.pos_idx, mined]).astype(np.intp)
    cls_labels = np.concatenate([np.ones(n_pos), np.zeros(mined.size)])
    # each anchor row is [logit, R regression cells]; select from the flat cells
    width = 1 + header.num_reg
    cells = flat.reshape(-1)
    cls_logits = T.gather_rows(cells, selected * width)
    if n_pos:
        reg_pred = T.gather_rows(cells, prep.pos_idx[:, None] * width
                                 + np.arange(1, width))
    else:
        reg_pred = Tensor.zeros((0, header.num_reg))
    return total_loss(cls_logits, cls_labels, reg_pred, prep.reg_targets,
                      alpha=cfg.loss.alpha)


def detect_scene(model: DetectorModel, cfg: ExperimentConfig,
                 anchors: np.ndarray, prep: PreparedScene) -> list[DetectionBox]:
    header = model.forward(prep.bev_input, prep.sample.image_feature_input,
                           prep.plans)
    boxes = decode_detections(header, anchors, center_norm=cfg.loss.center_norm)
    return nms(boxes, iou_threshold=cfg.eval.nms_iou,
               score_threshold=cfg.eval.score_threshold,
               max_out=cfg.eval.nms_max_out)


def evaluate_model(model: DetectorModel, cfg: ExperimentConfig,
                   anchors: np.ndarray, preps: list[PreparedScene]) -> dict:
    frames = [(detect_scene(model, cfg, anchors, p), p.sample.gt_boxes)
              for p in preps]
    curve = evaluate_pr(frames, cfg.eval)
    report = {
        "iou_kind": cfg.eval.iou_kind,
        "iou_threshold": cfg.eval.iou_threshold,
        "ap_points": cfg.eval.ap_points,
        "num_frames": len(frames),
        "num_gt": sum(len(g) for _, g in frames),
        "num_detections": sum(len(d) for d, _ in frames),
        "ap": curve.ap if curve is not None else None,
    }
    if curve is not None:
        report["pr_curve"] = {"recall": [round(float(r), 6) for r in curve.recalls],
                              "precision": [round(float(p), 6) for p in curve.precisions]}
    if cfg.eval.range_bins:
        report["range_ap"] = [{"bin": list(b), "ap": ap_}
                              for b, ap_ in piecewise_range_ap(frames, cfg.eval)]
    return report


def _lr_at(step: int, cfg: ExperimentConfig) -> float:
    opt = cfg.optimizer
    lr = opt.lr
    for frac in opt.decay_milestones:
        if step >= frac * opt.steps:
            lr *= opt.decay_factor
    return lr


def train_run(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Full training run: writes resolved config, per-step loss log, final
    checkpoint and training-set evaluation into ``out_dir``. The data loads
    first, so a bad input leaves no run directory."""
    from .config import save_config
    scenes = build_scenes(cfg)
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.yaml"))

    rng = np.random.default_rng(cfg.seed)
    model = build_model(cfg, rng)
    anchors = make_anchors(model.output_grid, cfg.anchor.size, cfg.anchor.z)
    static_preps = [prepare_scene(model, cfg, anchors, s) for s in scenes]

    params = model.parameters()
    opt = Adam(params.values(), lr=cfg.optimizer.lr, betas=cfg.optimizer.betas,
               eps=cfg.optimizer.eps)
    log_path = os.path.join(out_dir, "train_log.jsonl")
    first_loss = last_loss = None
    with open(log_path, "w") as log:
        for step in range(cfg.optimizer.steps):
            opt.lr = _lr_at(step, cfg)
            if cfg.data.augment is not None:
                preps = [prepare_scene(model, cfg, anchors,
                                       augment(s, cfg.data.augment,
                                               seed=[cfg.seed, step, i]))
                         for i, s in enumerate(scenes)]
            else:
                preps = static_preps
            breakdowns = []
            for i, prep in enumerate(preps):
                mining_rng = np.random.default_rng([cfg.seed, 7, step, i])
                breakdowns.append(scene_loss(model, cfg, prep, mining_rng))
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
            for name, p in params.items():
                if not np.isfinite(p.data).all():
                    raise NumericError(
                        f"non-finite parameter {name} after step {step}")
            every = cfg.optimizer.checkpoint_every
            if every and (step + 1) % every == 0:
                save_checkpoint(params, os.path.join(out_dir, f"ckpt_{step + 1:06d}.bin"))
    save_checkpoint(params, os.path.join(out_dir, "ckpt_final.bin"))

    report = evaluate_model(model, cfg, anchors, static_preps)
    report["initial_loss"] = first_loss
    report["final_loss"] = last_loss
    with atomic_write(os.path.join(out_dir, "final_metrics.json")) as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return report


def eval_run(cfg: ExperimentConfig, checkpoint_path: str, out_dir: str) -> dict:
    """Evaluate a checkpoint on the configured dataset. The data and the
    checkpoint load first, so a bad input leaves no run directory."""
    from .config import save_config
    from .tensor import load_checkpoint
    scenes = build_scenes(cfg)
    model = build_model(cfg)
    model.load_parameters(load_checkpoint(checkpoint_path))
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.yaml"))
    anchors = make_anchors(model.output_grid, cfg.anchor.size, cfg.anchor.z)
    preps = [prepare_scene(model, cfg, anchors, s) for s in scenes]
    report = evaluate_model(model, cfg, anchors, preps)
    with atomic_write(os.path.join(out_dir, "eval_report.json")) as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return report


ABLATION_VARIANTS = ("bev_only", "discrete", "continuous_nogeo", "continuous")


def ablate_run(cfg: ExperimentConfig, out_dir: str,
               variants=ABLATION_VARIANTS,
               knn_grid: list[FusionSection] | None = None) -> list[dict]:
    """Train each fusion variant (optionally over a grid of fusion sections)
    with the shared seed and data; emit one comparison row per run. The
    data loads and is checked against every variant first, so a bad input
    leaves no output directory."""
    scenes = build_scenes(replace(cfg, mode="bev_only"))
    for variant in variants:
        _check_images_fit(replace(cfg, mode=variant), scenes)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for variant in variants:
        grid = knn_grid if (knn_grid and variant.startswith("continuous")) \
            else [cfg.fusion]
        for fusion in grid:
            k, d = fusion.k, fusion.max_dist
            tag = f"{variant}_k{k}_d{d:g}"
            report = train_run(replace(cfg, mode=variant, fusion=fusion),
                               os.path.join(out_dir, tag))
            rows.append({"variant": variant, "k": k, "max_dist": d,
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


def run_gradcheck(rtol: float = 1e-4, seed: int = 0) -> list[tuple[str, float, bool]]:
    """Finite-difference checks for every registered differentiable op plus an
    end-to-end miniature model; returns (name, max rel err, passed) rows."""
    from .gradcheck import max_grad_error
    rng = np.random.default_rng(seed)
    results = []

    def check(name, make_loss, params):
        worst = max_grad_error(make_loss, params)
        results.append((name, worst, worst < rtol))

    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    check("matmul", lambda: (T.matmul(a, b) * T.matmul(a, b)).sum(), [a, b])

    x = Tensor(rng.standard_normal((2, 5, 5)), requires_grad=True)
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
    bias = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
    check("add_rowvec", lambda: (T.add_rowvec(e, bias) ** 2.0).sum(), [e, bias])
    cb = Tensor(rng.standard_normal(2), requires_grad=True)
    check("add_channel_bias", lambda: (T.add_channel_bias(x, cb) ** 2.0).sum(), [x, cb])
    check("upsample2x", lambda: (T.upsample2x(x) ** 2.0).sum(), [x])
    fm = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
    uv = rng.uniform(-0.5, 5.5, (12, 2))
    check("bilinear_sample", lambda: (T.bilinear_sample(fm, uv) ** 2.0).sum(), [fm])
    check("reshape_transpose",
          lambda: (x.reshape(5, 5, 2).transpose((2, 0, 1)) ** 2.0).sum(), [x])

    # continuous fusion layer on a tiny instance
    from .data import make_forward_camera
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
    results.append(_miniature_model_check(rtol))

    # 1 x 1 convs take their own data path (no im2col copy at stride 1)
    x1 = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    w1 = Tensor(rng.standard_normal((2, 3, 1, 1)), requires_grad=True)
    for stride in (1, 2):
        check(f"conv2d_1x1_s{stride}",
              lambda s=stride: (T.conv2d(x1, w1, stride=s) ** 2.0).sum(), [x1, w1])

    # the loss ops: logits out to ±6 and offsets on both sides of the |x| = 1 kink
    logits = Tensor(rng.uniform(-6.0, 6.0, 8), requires_grad=True)
    check("bce_with_logits", lambda: T.bce_with_logits(logits, np.arange(8) % 2), [logits])
    pred = Tensor(rng.uniform(-3.0, 3.0, (4, 3)), requires_grad=True)
    check("smooth_l1_sum", lambda: T.smooth_l1_sum(pred, np.full((4, 3), 0.5)), [pred])
    return results


def miniature_config() -> ExperimentConfig:
    from .backbone import BackboneConfig, GroupSpec
    from .config import ExperimentConfig
    from .data import SceneGenConfig
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


def _miniature_model_check(rtol: float) -> tuple[str, float, bool]:
    from .gradcheck import max_grad_error
    cfg = miniature_config()
    rng = np.random.default_rng(5)
    model = build_model(cfg, rng)
    sample = build_scenes(cfg)[0]
    sample.cloud = PointCloud(sample.cloud.points[:4])     # 4-point cloud
    anchors = make_anchors(model.output_grid, cfg.anchor.size, cfg.anchor.z)
    prep = prepare_scene(model, cfg, anchors, sample)
    params = model.parameters()
    _jitter_biases(params, rng)

    # freeze the mined negative set: mining ranks by live scores, which makes
    # the loss piecewise in the parameters and invalidates finite differences
    header = model.forward(prep.bev_input, prep.sample.image_feature_input,
                           prep.plans)
    scores = T.logistic(header.flat().data[:, 0])
    mined = hard_negative_mining(prep.neg_idx, scores,
                                 cfg.assignment().topk(prep.pos_idx.size),
                                 cfg.assignment().neg_sample_fraction,
                                 np.random.default_rng(1))

    def loss():
        return scene_loss(model, cfg, prep, np.random.default_rng(1),
                          mined_override=mined).total
    # check a representative parameter subset (full sweep is minutes-slow)
    worst = max_grad_error(loss, [p for _, p in sorted(params.items()) if p.size <= 80])
    return ("miniature_end_to_end", worst, worst < rtol)
