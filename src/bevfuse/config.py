"""Experiment configuration: a strict, versioned YAML document that fully
identifies a run. Unknown keys are rejected; every run directory receives the
resolved copy."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, get_type_hints

import yaml

from .backbone import MODES, BackboneConfig, GroupSpec
from .data import AugmentationConfig, SceneGenConfig
from .evaluation import EvalConfig
from .fusion import FusionConfig
from .geometry import BevGrid
from .losses import AssignmentConfig
from .tensor import InputError

CONFIG_VERSION = 1
ENV_PREFIX = "BEVFUSE_"


class ConfigError(InputError):
    pass


@dataclass
class AnchorConfig:
    size: tuple[float, float, float] = (4.0, 2.0, 1.6)
    z: float = 0.8


@dataclass
class OptimConfig:
    lr: float = 0.001
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    steps: int = 300
    decay_milestones: tuple[float, float] = (0.6, 0.9)  # fractions of total steps
    decay_factor: float = 0.1
    checkpoint_every: int = 0          # extra checkpoints every N steps; 0 = final only


@dataclass
class LossConfig:
    alpha: float = 1.0
    center_norm: str = "anchor_coord"  # literal printed encoding; "diagonal" optional
    wrap_orientation: bool = False


@dataclass
class DataSection:
    source: str = "synthetic"          # synthetic | manifest | kitti
    n_scenes: int = 4
    synthetic: SceneGenConfig = field(default_factory=SceneGenConfig)
    manifest: str | None = None
    kitti_frames: list[dict] | None = None   # {velodyne, calib, labels} per frame
    augment: AugmentationConfig | None = None


@dataclass
class EvalSection:
    iou_kind: str = "bev"
    iou_threshold: float = 0.5
    ap_points: int = 11
    range_bins: list[tuple[float, float]] | None = None
    ignore_classes: tuple[int, ...] = ()
    score_threshold: float = 0.1
    nms_iou: float = 0.1
    nms_max_out: int = 50

    def eval_config(self) -> EvalConfig:
        return EvalConfig(self.iou_kind, self.iou_threshold, self.ap_points,
                          self.range_bins, self.ignore_classes)


@dataclass
class ExperimentConfig:
    config_version: int = CONFIG_VERSION
    seed: int = 0
    mode: str = "continuous"
    variant: str = "bev"
    grid: BevGrid = field(default_factory=lambda: BevGrid(
        (0.0, 32.0), (-16.0, 16.0), (0.0, 3.0), 32, 32, 4))
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    image_feat_channels: int = 8
    bev_fpn_channels: int = 32
    anchor: AnchorConfig = field(default_factory=AnchorConfig)
    assign: AssignmentConfig | None = None       # None: radii from the anchor size
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    data: DataSection = field(default_factory=DataSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {self.config_version}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")

    def assignment(self) -> AssignmentConfig:
        return self.assign if self.assign is not None \
            else AssignmentConfig.from_anchor(self.anchor.size)


# -- strict dict -> dataclass construction ------------------------------------

_TUPLE_FIELDS = "size", "betas", "decay_milestones", "x_range", "y_range", \
    "z_range", "object_count", "base_size", "image_shape", "focal", "scale_xy", \
    "scale_z", "image_size", "fusion_points", "ignore_classes", "image_scale"


def _coerce(value: Any, name: str, hint: Any, path: str) -> Any:
    if value is None:
        return None
    if hint in (BevGrid,) or (dataclasses.is_dataclass(hint) and isinstance(value, dict)):
        return _from_dict(hint, value, path)
    if name in ("bev_groups", "image_groups"):
        return [GroupSpec(**g) if isinstance(g, dict) else
                GroupSpec(*g) if isinstance(g, (list, tuple)) else g for g in value]
    if name == "range_bins" and value is not None:
        return [tuple(b) for b in value]
    if name in _TUPLE_FIELDS and isinstance(value, list):
        return tuple(value)
    return value


def _from_dict(cls, d: dict, path: str = ""):
    if not isinstance(d, dict):
        raise ConfigError(f"{path or cls.__name__}: expected a mapping, got {type(d).__name__}")
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in d:
            continue
        sub = f"{path}.{f.name}" if path else f.name
        hint = hints.get(f.name)
        # unwrap Optional[X] / unions down to a dataclass when present
        target = hint
        if hasattr(hint, "__args__"):
            dc = [a for a in hint.__args__ if dataclasses.is_dataclass(a)]
            target = dc[0] if dc else hint
        kwargs[f.name] = _coerce(d[f.name], f.name, target, sub)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path or cls.__name__}: {e}") from None


def config_from_dict(d: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, d)


def config_to_dict(cfg) -> Any:
    if dataclasses.is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name))
                for f in dataclasses.fields(cfg)}
    if isinstance(cfg, (list, tuple)):
        return [config_to_dict(v) for v in cfg]
    return cfg


def apply_env_overrides(d: dict, environ=None) -> dict:
    """BEVFUSE_SECTION__KEY=value overrides nested config keys; values parse
    as YAML scalars."""
    environ = environ if environ is not None else os.environ
    for key, raw in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        parts = [p.lower() for p in key[len(ENV_PREFIX):].split("__")]
        node = d
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override non-mapping key {'.'.join(parts)}")
        node[parts[-1]] = yaml.safe_load(raw)
    return d


def load_config(path, environ=None) -> ExperimentConfig:
    with open(path) as f:
        d = yaml.safe_load(f) or {}
    return config_from_dict(apply_env_overrides(d, environ))


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=True)
