"""Experiment configuration: a strict, versioned YAML document that fully
identifies a run. Unknown keys are rejected; every run directory receives the
resolved copy."""

from __future__ import annotations

import dataclasses
import math
import os
import types
from dataclasses import dataclass, field
from typing import Any, Union, get_args, get_origin, get_type_hints

import yaml

from .backbone import MODES, BackboneConfig
from .data import AugmentationConfig, SceneGenConfig
from .detect import NUM_REG
from .evaluation import EvalConfig
from .geometry import BevGrid
from .losses import AssignmentConfig
from .tensor import InputError, atomic_write

CONFIG_VERSION = 1
ENV_PREFIX = "BEVFUSE_"


class ConfigError(InputError):
    pass


@dataclass
class AnchorConfig:
    size: tuple[float, float, float] = (4.0, 2.0, 1.6)
    z: float = 0.8

    def __post_init__(self):
        if not all(s > 0 for s in self.size):       # NaN fails this too
            raise ValueError(f"anchor sizes must be > 0, got {list(self.size)}")
        if not math.isfinite(self.z):
            raise ValueError(f"anchor z must be finite, got {self.z}")


@dataclass
class OptimConfig:
    lr: float = 0.001
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    steps: int = 300
    decay_milestones: tuple[float, float] = (0.6, 0.9)  # fractions of total steps
    decay_factor: float = 0.1
    checkpoint_every: int = 0          # extra checkpoints every N steps; 0 = final only

    def __post_init__(self):
        if not 0 < self.lr < math.inf:     # NaN fails this too
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class LossConfig:
    alpha: float = 1.0
    center_norm: str = "anchor_coord"  # literal printed encoding; "diagonal" optional
    wrap_orientation: bool = False

    def __post_init__(self):
        if self.center_norm not in ("anchor_coord", "diagonal"):
            raise ValueError(f"unknown center_norm {self.center_norm!r}")


@dataclass
class DataSection:
    source: str = "synthetic"          # synthetic | manifest | kitti
    n_scenes: int = 4
    synthetic: SceneGenConfig = field(default_factory=SceneGenConfig)
    manifest: str | None = None
    kitti_frames: list[dict] | None = None   # {velodyne, calib, labels} per frame
    augment: AugmentationConfig | None = None

    def __post_init__(self):
        if self.source not in ("synthetic", "manifest", "kitti"):
            raise ValueError(f"unknown data source {self.source!r}")
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be >= 1")
        if self.source == "manifest" and not self.manifest:
            raise ValueError("source 'manifest' needs a manifest path")


@dataclass
class FusionSection:
    """Neighbour search of every fusion layer; the layer widths follow from
    the image channels and the mode."""

    k: int = 1
    max_dist: float = 10.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.max_dist > 0:       # NaN fails this too; inf is valid
            raise ValueError(f"max_dist must be > 0, got {self.max_dist}")


@dataclass
class ExperimentConfig:
    config_version: int = CONFIG_VERSION
    seed: int = 0
    mode: str = "continuous"
    variant: str = "bev"
    grid: BevGrid = field(default_factory=lambda: BevGrid(
        (0.0, 32.0), (-16.0, 16.0), (0.0, 3.0), 32, 32, 4))
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    fusion: FusionSection = field(default_factory=FusionSection)
    image_feat_channels: int = 8
    bev_fpn_channels: int = 32
    anchor: AnchorConfig = field(default_factory=AnchorConfig)
    assign: AssignmentConfig | None = None       # None: radii from the anchor size
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    data: DataSection = field(default_factory=DataSection)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {self.config_version}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.variant not in NUM_REG:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.seed < 0:               # np.random.default_rng rejects it
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # the streams halve their rasters group by group
        stride = math.prod(g.stride for g in self.backbone.bev_groups)
        if self.grid.nx % stride or self.grid.ny % stride:
            raise ConfigError(f"grid {self.grid.nx}x{self.grid.ny} not divisible by "
                              f"the BEV stride {stride}")
        stride = math.prod(g.stride for g in self.backbone.image_groups)
        _, h, w = self.data.synthetic.image_shape
        if self.mode != "bev_only" and (h % stride or w % stride):
            raise ConfigError(f"image {h}x{w} not divisible by the image stride {stride}")

    def assignment(self) -> AssignmentConfig:
        return self.assign if self.assign is not None \
            else AssignmentConfig.from_anchor(self.anchor.size)


# -- strict dict -> dataclass construction ------------------------------------

def _coerce(value: Any, hint: Any, path: str) -> Any:
    """Check and shape a parsed YAML value by its field's type hint: scalars
    by type without converting them (an int passes as a float, a bool as
    neither), dataclasses from a mapping or a positional list, tuples and
    lists element by element, and ``X | None`` as ``X``; only such a field
    may be null."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return None if value is None else \
            _coerce(value, next(a for a in args if a is not type(None)), path)
    if value is None:
        raise ConfigError(f"{path}: must not be null")
    if hint in (bool, int, float, str):
        if isinstance(value, bool) != (hint is bool) or \
                not isinstance(value, (int, float) if hint is float else hint):
            raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint):
        if isinstance(value, (list, tuple)):
            names = [f.name for f in dataclasses.fields(hint)]
            if len(value) > len(names):
                raise ConfigError(f"{path}: expected at most {len(names)} items, "
                                  f"got {len(value)}")
            value = dict(zip(names, value))
        return _from_dict(hint, value, path)
    if origin not in (tuple, list) or not isinstance(value, (list, tuple)):
        return value
    if origin is list or args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    elif len(args) != len(value):
        raise ConfigError(f"{path}: expected {len(args)} items, got {len(value)}")
    return origin(_coerce(v, a, f"{path}[{i}]")
                  for i, (v, a) in enumerate(zip(value, args)))


def _from_dict(cls, d: dict, path: str = ""):
    if not isinstance(d, dict):
        raise ConfigError(f"{path or cls.__name__}: expected a mapping, got {type(d).__name__}")
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {sorted(unknown)}")
    kwargs = {name: _coerce(value, hints[name], f"{path}.{name}" if path else name)
              for name, value in d.items()}
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
        node[parts[-1]] = _parse_yaml(raw, key)
    return d


def _parse_yaml(text, source: str) -> Any:
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"{source}: malformed YAML: {e}") from None


def load_config(path, environ=None) -> ExperimentConfig:
    with open(path) as f:
        d = _parse_yaml(f, str(path)) or {}
    return config_from_dict(apply_env_overrides(d, environ))


def save_config(cfg: ExperimentConfig, path):
    with atomic_write(path) as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=True)
