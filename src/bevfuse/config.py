"""Experiment configuration: a strict, versioned YAML document that fully
identifies a run. Unknown keys are rejected; every run directory receives the
resolved copy."""

from __future__ import annotations

import dataclasses
import os
import types
from dataclasses import dataclass, field
from typing import Annotated, Any, Literal, Union, get_args, get_origin

import yaml

from .backbone import BackboneConfig, Mode, group_stride
from .data import AugmentationConfig, SceneGenConfig
from .detect import Variant
from .domains import Checked, Finite, NonNeg, Pos, Unit, UnitOpen, type_hints
from .evaluation import EvalConfig
from .fusion import FusionSection
from .geometry import BevGrid
from .losses import AssignmentConfig
from .tensor import InputError, atomic_write

CONFIG_VERSION = 1
ENV_PREFIX = "BEVFUSE_"

# libyaml's classes where PyYAML was built with them; they read and write the
# same documents as the pure-Python ones, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(InputError):
    pass


@dataclass
class AnchorConfig(Checked):
    size: Annotated[tuple[float, float, float], Finite, Pos] = (4.0, 2.0, 1.6)
    z: Annotated[float, Finite] = 0.8


@dataclass
class OptimConfig(Checked):
    lr: Annotated[float, Finite, Pos] = 0.001
    betas: Annotated[tuple[float, float], UnitOpen] = (0.9, 0.999)
    eps: Annotated[float, Finite, Pos] = 1e-8
    steps: Annotated[int, NonNeg] = 300
    decay_milestones: Annotated[tuple[float, float], Unit] = (0.6, 0.9)  # fractions of steps
    decay_factor: Annotated[float, Pos, Unit] = 0.1
    checkpoint_every: Annotated[int, NonNeg] = 0   # extra checkpoints every N steps; 0: none


@dataclass
class LossConfig(Checked):
    alpha: Annotated[float, Finite, NonNeg] = 1.0
    center_norm: Literal["anchor_coord", "diagonal"] = "anchor_coord"  # the printed encoding
    wrap_orientation: bool = False


@dataclass
class KittiFrame:
    """Paths of one KITTI frame's files."""

    velodyne: str
    calib: str
    labels: str


@dataclass
class DataSection(Checked):
    source: Literal["synthetic", "manifest", "kitti"] = "synthetic"
    n_scenes: Annotated[int, Pos] = 4
    synthetic: SceneGenConfig = field(default_factory=SceneGenConfig)
    manifest: str | None = None
    kitti_frames: list[KittiFrame] | None = None
    augment: AugmentationConfig | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.source == "manifest" and not self.manifest:
            raise ValueError("source 'manifest' needs a manifest path")


@dataclass
class ExperimentConfig(Checked):
    config_version: int = CONFIG_VERSION
    seed: Annotated[int, NonNeg] = 0        # np.random.default_rng rejects < 0
    mode: Mode = "continuous"
    variant: Variant = "bev"
    grid: BevGrid = field(default_factory=lambda: BevGrid(
        (0.0, 32.0), (-16.0, 16.0), (0.0, 3.0), 32, 32, 4))
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    fusion: FusionSection = field(default_factory=FusionSection)
    image_feat_channels: Annotated[int, Pos] = 8
    bev_fpn_channels: Annotated[int, Pos] = 32
    anchor: AnchorConfig = field(default_factory=AnchorConfig)
    assign: AssignmentConfig | None = None       # None: radii from the anchor size
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    data: DataSection = field(default_factory=DataSection)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        super().__post_init__()
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {self.config_version}")
        stride = group_stride(len(self.backbone.bev_groups) - 1)
        if self.grid.nx % stride or self.grid.ny % stride:
            raise ConfigError(f"grid {self.grid.nx}x{self.grid.ny} not divisible by "
                              f"the BEV stride {stride}")
        if self.mode != "bev_only" and not self.backbone.fusion_points:
            raise ConfigError(f"mode {self.mode!r} needs at least one fusion point")
        stride = group_stride(len(self.backbone.image_groups) - 1)
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
    if origin is Annotated:             # the domain is checked on construction
        return _coerce(value, args[0], path)
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
                raise ConfigError(f"{path}: expected at most {len(names)} items "
                                  f"({', '.join(names)}), got {len(value)}")
            value = dict(zip(names, value))
        return _from_dict(hint, value, path)
    if origin not in (tuple, list):
        return value
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    if origin is list or args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    elif len(args) != len(value):
        raise ConfigError(f"{path}: expected {len(args)} items, got {len(value)}")
    return origin(_coerce(v, a, f"{path}[{i}]")
                  for i, (v, a) in enumerate(zip(value, args)))


def _from_dict(cls, d: dict, path: str = ""):
    if not isinstance(d, dict):
        raise ConfigError(f"{path or cls.__name__}: expected a mapping, got {type(d).__name__}")
    hints = type_hints(cls)
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
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as e:
        raise ConfigError(f"{source}: malformed YAML: {e}") from None


def load_config(path, environ=None) -> ExperimentConfig:
    with open(path, "rb") as f:      # the loader decodes: bad bytes are a YAMLError
        d = _parse_yaml(f, str(path)) or {}
    return config_from_dict(apply_env_overrides(d, environ))


def save_config(cfg: ExperimentConfig, path):
    with atomic_write(path) as f:
        yaml.dump(config_to_dict(cfg), f, Dumper=_DUMPER, sort_keys=True)
