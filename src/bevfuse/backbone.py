"""Two-stream backbone: image conv stack with pyramid combination, BEV
residual groups with fusion insertion points, and the full detector model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .detect import DetectionHeader, HeaderOutput
from .fusion import (FusionMlp, FusionPlan, apply_fusion, plan_discrete_fusion,
                     plan_fusion, xavier_uniform)
from .geometry import BevGrid, CalibratedCamera, PointCloud, build_bev_index
from .tensor import InputError, Tensor

if TYPE_CHECKING:
    from .config import FusionSection

MODES = ("continuous", "continuous_nogeo", "discrete", "bev_only")


@dataclass
class GroupSpec:
    layers: int          # 3x3 conv count; one residual block per 2 layers
    channels: int        # the stride follows from the position: group_stride

    def __post_init__(self):
        if self.layers < 2 or self.layers % 2:
            raise ValueError(f"group layers must be even and >= 2, got {self.layers}")
        if self.channels < 1:
            raise ValueError(f"group channels must be >= 1, got {self.channels}")


def group_stride(gi: int) -> int:
    """Planar stride of group ``gi``'s output against its stream's input:
    group 0 keeps the raster and every later group halves it."""
    return 2 ** gi


@dataclass
class BackboneConfig:
    """Desk-scale default shrinks the full-size net (layer counts
    2/4/8/12/12, channels 32/64/128/192/256) to 2-layer groups with
    8/16/32/48/64 channels; the full-size schedule stays expressible."""

    bev_groups: list[GroupSpec] = field(default_factory=lambda: [
        GroupSpec(2, 8), GroupSpec(2, 16), GroupSpec(2, 32), GroupSpec(2, 48),
        GroupSpec(2, 64)])
    image_groups: list[GroupSpec] = field(default_factory=lambda: [
        GroupSpec(2, 8), GroupSpec(2, 16), GroupSpec(2, 32), GroupSpec(2, 48)])
    fusion_points: tuple[int, ...] = (0, 1, 2, 3)

    def __post_init__(self):
        if not self.bev_groups or not self.image_groups:
            raise ValueError("each stream needs at least one group")
        if not all(0 <= p < len(self.bev_groups) for p in self.fusion_points):
            raise ValueError(f"fusion points must index the {len(self.bev_groups)} BEV "
                             f"groups, got {list(self.fusion_points)}")


class Conv2dLayer:
    def __init__(self, in_ch: int, out_ch: int, ksize: int, stride: int,
                 padding: int, rng: np.random.Generator, name: str):
        fan_in = in_ch * ksize * ksize
        self.weight = Tensor(xavier_uniform(rng, fan_in, out_ch,
                                            (out_ch, in_ch, ksize, ksize)),
                             requires_grad=True)
        self.bias = Tensor.zeros((out_ch,), requires_grad=True)
        self.stride = stride
        self.padding = padding
        self.name = name

    def parameters(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def forward(self, x: Tensor) -> Tensor:
        return T.add_channel_bias(
            T.conv2d(x, self.weight, stride=self.stride, padding=self.padding),
            self.bias)


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
        out = {**self.conv1.parameters(), **self.conv2.parameters()}
        if self.skip is not None:
            out.update(self.skip.parameters())
        return out

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
        out = {}
        for blk in self.blocks:
            out.update(blk.parameters())
        return out

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
        out = {}
        for p in self.projs:
            out.update(p.parameters())
        return out

    def forward(self, maps: list[Tensor]) -> Tensor:
        if len(maps) != len(self.projs):
            raise ValueError(f"expected {len(self.projs)} maps, got {len(maps)}")
        for fine, coarse in zip(maps, maps[1:]):
            if fine.shape[1] != 2 * coarse.shape[1] or fine.shape[2] != 2 * coarse.shape[2]:
                raise ValueError("pyramid spatial extents must halve scale to scale")
        out = self.projs[-1].forward(maps[-1])
        for i in range(len(maps) - 2, -1, -1):
            out = self.projs[i].forward(maps[i]) + T.upsample2x(out)
        return out


class ImageStream:
    """Toy image backbone: residual groups plus pyramid combination; the
    combined map is the fusion input."""

    def __init__(self, in_channels: int, cfg: BackboneConfig, out_channels: int,
                 rng, name: str = "image"):
        self.groups = residual_stream(in_channels, cfg.image_groups, rng, name)
        self.combiner = FpnCombiner([g.channels for g in cfg.image_groups],
                                    out_channels, rng, f"{name}.fpn")
        self.cum_stride = group_stride(len(self.groups) - 1)

    def parameters(self):
        out = self.combiner.parameters()
        for g in self.groups:
            out.update(g.parameters())
        return out

    def forward(self, image_input: Tensor) -> Tensor:
        """The pyramid merged at the finest scale."""
        _, h, w = image_input.shape
        if h % self.cum_stride or w % self.cum_stride:
            raise ValueError(f"image dims {h}x{w} not divisible by stride {self.cum_stride}")
        scales = []
        x = image_input
        for g in self.groups:
            x = g.forward(x)
            scales.append(x)
        return self.combiner.forward(scales)


class DetectorModel:
    """Image stream + BEV stream bridged by fusion layers, plus the header."""

    def __init__(self, grid: BevGrid, backbone: BackboneConfig,
                 fusion_cfg: FusionSection, image_in_channels: int,
                 image_feat_channels: int, bev_fpn_channels: int,
                 header_variant: str, mode: str = "continuous",
                 rng: np.random.Generator | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.grid = grid
        self.backbone = backbone
        self.mode = mode

        self.image_stream = None
        self.fusion_mlps: dict[int, FusionMlp] = {}
        if mode != "bev_only":
            self.image_stream = ImageStream(image_in_channels, backbone,
                                            image_feat_channels, rng)
            in_dim = image_feat_channels + (3 if mode == "continuous" else 0)  # + x_j - x_i
            for p in backbone.fusion_points:
                self.fusion_mlps[p] = FusionMlp(in_dim,
                                                backbone.bev_groups[p].channels,
                                                rng, name=f"fusion{p}")

        self.bev_groups = residual_stream(grid.nz, backbone.bev_groups, rng, "bev")
        # final map merges the last three groups (or all, when fewer exist)
        self.num_combined = min(3, len(backbone.bev_groups))
        self.bev_combiner = FpnCombiner(
            [g.channels for g in backbone.bev_groups[-self.num_combined:]],
            bev_fpn_channels, rng, "bev.fpn")
        self.header = DetectionHeader(bev_fpn_channels, header_variant, rng=rng)

        self.output_grid = grid.downsample(
            group_stride(len(self.bev_groups) - self.num_combined))
        # every fusion level's raster, and all their pixel centers in level
        # order: one neighbour query per scene answers every level
        self.fusion_section = fusion_cfg
        self.fusion_grids = {p: grid.downsample(group_stride(p)) for p in self.fusion_mlps}
        centers = [g.pixel_centers().reshape(-1, 2) for g in self.fusion_grids.values()]
        self._centers = np.concatenate([np.zeros((0, 2)), *centers])
        self._level_ends = np.cumsum([len(c) for c in centers])[:-1]

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        if self.image_stream is not None:
            out.update(self.image_stream.parameters())
        for mlp in self.fusion_mlps.values():
            out.update(mlp.parameters())
        for g in self.bev_groups:
            out.update(g.parameters())
        out.update(self.bev_combiner.parameters())
        out.update(self.header.parameters())
        return out

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
            p.data[:] = values[name]

    def make_plans(self, cloud: PointCloud,
                   cam: CalibratedCamera) -> dict[int, FusionPlan]:
        """Precompute neighbor pairings for every fusion insertion point."""
        if self.mode == "discrete":         # never queries a k-d tree
            return {p: plan_discrete_fusion(cloud, cam, g)
                    for p, g in self.fusion_grids.items()}
        if not self.fusion_grids:
            return {}
        knn = self.fusion_section
        nb = build_bev_index(cloud).query(self._centers, knn.k, knn.max_dist)
        geometric = self.mode == "continuous"
        return {p: plan_fusion(cloud, cam, g, rows, geometric)
                for (p, g), rows in zip(self.fusion_grids.items(),
                                        np.split(nb, self._level_ends))}

    def forward(self, bev_input: Tensor, image_input: Tensor | None,
                plans: dict[int, FusionPlan] | None) -> HeaderOutput:
        if self.image_stream is not None:
            if image_input is None or plans is None:
                raise ValueError("fusion modes need the image input and plans")
            image_combined = self.image_stream.forward(image_input)
        x = bev_input
        outs = []
        for gi, group in enumerate(self.bev_groups):
            x = group.forward(x)
            if gi in self.fusion_mlps:
                x = x + apply_fusion(image_combined, plans[gi], self.fusion_mlps[gi])
            outs.append(x)
        final = self.bev_combiner.forward(outs[-self.num_combined:])
        return self.header.forward(final)
