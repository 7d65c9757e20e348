"""Two-stream backbone: image conv stack with pyramid combination, BEV
residual groups with fusion insertion points, and the full detector model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Annotated, Literal

import numpy as np

from . import tensor as T
from .detect import DetectionHeader, HeaderOutput, make_anchors
from .domains import Checked, NonEmpty, Pos, Within
from .fusion import (Conv2dLayer, FusionMlp, FusionPlan, apply_fusion, level_centers,
                     plan_discrete_fusion, plan_fusion)
from .geometry import CalibratedCamera, PointCloud, build_bev_index
from .tensor import InputError, Tensor

if TYPE_CHECKING:                   # config imports this module
    from .config import ExperimentConfig
    from .data import SceneSample

MODES = ("continuous", "continuous_nogeo", "discrete", "bev_only")
Mode = Literal[MODES]


@dataclass
class GroupSpec(Checked):
    layers: Annotated[int, Within(1, 64)]   # 3x3 conv count; one residual block per 2 layers
    channels: Annotated[int, Pos]    # the stride follows from the position: group_stride

    def __post_init__(self):
        super().__post_init__()
        if self.layers % 2:
            raise ValueError(f"group layers must be even, got {self.layers}")


def group_stride(gi: int) -> int:
    """Planar stride of group ``gi``'s output against its stream's input:
    group 0 keeps the raster and every later group halves it."""
    return 2 ** gi


@dataclass
class BackboneConfig(Checked):
    """Desk-scale default shrinks the full-size net (layer counts
    2/4/8/12/12, channels 32/64/128/192/256) to 2-layer groups with
    8/16/32/48/64 channels; the full-size schedule stays expressible."""

    bev_groups: Annotated[list[GroupSpec], NonEmpty] = field(default_factory=lambda: [
        GroupSpec(2, 8), GroupSpec(2, 16), GroupSpec(2, 32), GroupSpec(2, 48),
        GroupSpec(2, 64)])
    image_groups: Annotated[list[GroupSpec], NonEmpty] = field(default_factory=lambda: [
        GroupSpec(2, 8), GroupSpec(2, 16), GroupSpec(2, 32), GroupSpec(2, 48)])
    fusion_points: tuple[int, ...] = (0, 1, 2, 3)

    def __post_init__(self):
        super().__post_init__()
        if not all(0 <= p < len(self.bev_groups) for p in self.fusion_points):
            raise ValueError(f"fusion points must index the {len(self.bev_groups)} BEV "
                             f"groups, got {list(self.fusion_points)}")
        if len(set(self.fusion_points)) < len(self.fusion_points):
            raise ValueError(f"fusion points must be distinct, got {list(self.fusion_points)}")


def merge_parameters(*modules) -> dict[str, Tensor]:
    """The named parameters of every module that is not None, in argument
    order: the order of checkpoint records and of Adam's arrays."""
    out = {}
    for m in modules:
        if m is not None:
            out.update(m.parameters())
    return out


class ResidualBlock:
    """Two 3x3 convs with an identity skip; 1x1 projection skip on channel or
    stride change."""

    def __init__(self, in_ch: int, out_ch: int, stride: int,
                 rng: np.random.Generator, name: str):
        self.conv1 = Conv2dLayer(in_ch, out_ch, 3, stride, 1, rng, f"{name}.conv1")
        self.conv2 = Conv2dLayer(out_ch, out_ch, 3, 1, 1, rng, f"{name}.conv2")
        self.skip = None
        if in_ch != out_ch or stride != 1:
            self.skip = Conv2dLayer(in_ch, out_ch, 1, stride, 0, rng, f"{name}.skip")

    def parameters(self):
        return merge_parameters(self.conv1, self.conv2, self.skip)

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv2.forward(self.conv1.forward(x).relu())
        s = self.skip.forward(x) if self.skip is not None else x
        return (h + s).relu()


class ResidualGroup:
    def __init__(self, in_ch: int, spec: GroupSpec, stride: int, rng, name: str):
        self.blocks = []
        for b in range(spec.layers // 2):
            cin = in_ch if b == 0 else spec.channels
            self.blocks.append(ResidualBlock(cin, spec.channels, stride if b == 0 else 1,
                                             rng, f"{name}.block{b}"))

    def parameters(self):
        return merge_parameters(*self.blocks)

    def forward(self, x: Tensor) -> Tensor:
        for blk in self.blocks:
            x = blk.forward(x)
        return x


def residual_stream(in_ch: int, specs: list[GroupSpec], rng,
                    name: str) -> list[ResidualGroup]:
    """One group per spec, each halving the raster after the first."""
    groups = []
    for gi, spec in enumerate(specs):
        groups.append(ResidualGroup(in_ch, spec, 2 if gi else 1, rng, f"{name}.group{gi}"))
        in_ch = spec.channels
    return groups


class FpnCombiner:
    """Top-down merge: 1x1-project every scale, upsample coarse maps by 2 and
    add, returning the finest-resolution result."""

    def __init__(self, in_channels: list[int], out_channels: int, rng, name: str):
        self.projs = [Conv2dLayer(c, out_channels, 1, 1, 0, rng, f"{name}.proj{i}")
                      for i, c in enumerate(in_channels)]

    def parameters(self):
        return merge_parameters(*self.projs)

    def forward(self, maps: list[Tensor]) -> Tensor:
        if len(maps) != len(self.projs):
            raise ValueError(f"expected {len(self.projs)} maps, got {len(maps)}")
        for fine, coarse in zip(maps, maps[1:]):
            if fine.shape[-2] != 2 * coarse.shape[-2] or fine.shape[-1] != 2 * coarse.shape[-1]:
                raise ValueError("pyramid spatial extents must halve scale to scale")
        out = self.projs[-1].forward(maps[-1])
        for i in range(len(maps) - 2, -1, -1):
            out = self.projs[i].forward(maps[i]) + T.upsample2x(out)
        return out


class ImageStream:
    """Toy image backbone: residual groups plus pyramid combination; the
    combined map is the fusion input."""

    def __init__(self, in_channels: int, cfg: BackboneConfig, out_channels: int, rng):
        self.groups = residual_stream(in_channels, cfg.image_groups, rng, "image")
        self.combiner = FpnCombiner([g.channels for g in cfg.image_groups],
                                    out_channels, rng, "image.fpn")

    def parameters(self):
        return merge_parameters(self.combiner, *self.groups)

    def forward(self, image_input: Tensor) -> Tensor:
        """The pyramid merged at the finest scale."""
        scales = []
        x = image_input
        for g in self.groups:
            x = g.forward(x)
            scales.append(x)
        return self.combiner.forward(scales)


def param_module(name: str) -> str:
    """The module that owns parameter ``name``: ``image``, ``fusion<p>``,
    ``bev.group<g>``, ``bev.fpn`` or ``header``."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "bev" else parts[0]


def check_images(cfg: ExperimentConfig, scenes: list[SceneSample]):
    """Raise InputError unless ``cfg.mode`` is bev_only or every scene's
    image fits the image stream ``DetectorModel(cfg, rng)`` builds from the
    same fields. The images must share one shape, because a training step
    stacks them into one batch. Reads only ``cfg``, so it runs before any model."""
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


class DetectorModel:
    """Image stream + BEV stream bridged by fusion layers, plus the header."""

    def __init__(self, cfg: ExperimentConfig, rng: np.random.Generator):
        """Every module ``cfg`` describes, drawn from ``rng`` in a fixed order."""
        grid, backbone, mode = cfg.grid, cfg.backbone, cfg.mode
        self.mode = mode

        self.image_stream = None
        self.fusion_mlps: dict[int, FusionMlp] = {}
        if mode != "bev_only":
            self.image_stream = ImageStream(cfg.data.synthetic.image_shape[0], backbone,
                                            cfg.image_feat_channels, rng)
            in_dim = cfg.image_feat_channels + (3 if mode == "continuous" else 0)  # + x_j - x_i
            for p in backbone.fusion_points:
                self.fusion_mlps[p] = FusionMlp(in_dim,
                                                backbone.bev_groups[p].channels,
                                                rng, name=f"fusion{p}")

        self.bev_groups = residual_stream(grid.nz, backbone.bev_groups, rng, "bev")
        # final map merges the last three groups (or all, when fewer exist)
        self.num_combined = min(3, len(backbone.bev_groups))
        self.bev_combiner = FpnCombiner(
            [g.channels for g in backbone.bev_groups[-self.num_combined:]],
            cfg.bev_fpn_channels, rng, "bev.fpn")
        self.header = DetectionHeader(cfg.bev_fpn_channels, cfg.variant, rng=rng)

        self.output_grid = grid.downsample(
            group_stride(len(self.bev_groups) - self.num_combined))
        # the anchor row of each ``header.rows`` row of one scene
        self.anchors = make_anchors(self.output_grid, cfg.anchor.size, cfg.anchor.z)
        # every fusion level's raster, and all their pixel centers in level
        # order: one neighbour query per scene answers every level
        self.fusion_section = cfg.fusion
        self.fusion_grids = {p: grid.downsample(group_stride(p)) for p in self.fusion_mlps}
        self._centers = level_centers(self.fusion_grids)

    def parameters(self) -> dict[str, Tensor]:
        return merge_parameters(self.image_stream, *self.fusion_mlps.values(),
                                *self.bev_groups, self.bev_combiner, self.header)

    def load_parameters(self, values: dict[str, np.ndarray]):
        params = self.parameters()
        missing = set(params) - set(values)
        extra = set(values) - set(params)
        if missing or extra:
            raise InputError(f"checkpoint mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, p in params.items():
            if p.data.shape != values[name].shape:
                raise InputError(f"checkpoint shape mismatch for {name}")
            if not np.isfinite(values[name]).all():
                raise InputError(f"checkpoint parameter {name} holds a non-finite value")
            p.data[:] = values[name]

    def make_plans(self, cloud: PointCloud, cam: CalibratedCamera) -> FusionPlan | None:
        """Precompute the neighbor pairings of every fusion insertion point,
        as one plan; None in ``bev_only``, which fuses nothing."""
        if self.mode == "discrete":         # never queries a k-d tree
            return plan_discrete_fusion(cloud, cam, self.fusion_grids)
        if not self.fusion_grids:
            return None
        knn = self.fusion_section
        nb = build_bev_index(cloud).query(self._centers, knn.k, knn.max_dist)
        return plan_fusion(cloud, cam, self.fusion_grids, self._centers, nb,
                           self.mode == "continuous")

    def forward(self, bev_input: np.ndarray, image_input: np.ndarray | None,
                plan: FusionPlan | None) -> HeaderOutput:
        """Header output for N x C x H x W arrays with a ``merge_plans`` plan,
        or for one scene's C x H x W arrays and its own plan, as a batch of
        one. The tape starts here: the inputs become Tensors. Every fusion
        level's map is computed before the BEV stream runs."""
        fused = {}
        if self.image_stream is not None:
            if image_input is None or plan is None:
                raise ValueError("fusion modes need the image input and a plan")
            image = Tensor(image_input.reshape(-1, *image_input.shape[-3:]))
            fused = apply_fusion(self.image_stream.forward(image), plan, self.fusion_mlps)
        x = Tensor(bev_input.reshape(-1, *bev_input.shape[-3:]))
        outs = []
        for gi, group in enumerate(self.bev_groups):
            x = group.forward(x)
            if gi in fused:
                x = x + fused[gi]
            outs.append(x)
        final = self.bev_combiner.forward(outs[-self.num_combined:])
        return self.header.forward(final)
