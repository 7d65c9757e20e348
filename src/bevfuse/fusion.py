"""Continuous fusion: project image features onto a dense BEV raster through
the K nearest LIDAR points and an offset-conditioned shared MLP."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import tensor as T
from .domains import Checked, Pos
from .geometry import (BevGrid, CalibratedCamera, PointCloud, build_bev_index,
                       project_points)
from .tensor import Tensor


class FusionConfigError(ValueError):
    pass


@dataclass
class FusionSection(Checked):
    """Neighbour search of every fusion layer; the layer widths follow from
    the image channels and the mode."""

    k: Annotated[int, Pos] = 1
    max_dist: Annotated[float, Pos] = 10.0       # inf is valid


@dataclass
class FusionConfig(FusionSection):
    """Settings of a standalone layer (``continuous_fusion_forward``); defaults
    follow the best ablation setting (k=1, max_dist=10m, geometric feature on)."""

    use_geometric_feature: bool = True
    input_dim: Annotated[int, Pos] = 8      # D_i: image channels (+3 with the geometric feature)
    output_dim: Annotated[int, Pos] = 8     # D_o: BEV channels at the insertion point


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


class FusionMlp:
    """Shared 3-layer perceptron: two hidden layers of the input width, then a
    linear output layer; rectifier between layers, none at the end."""

    def __init__(self, input_dim: int, output_dim: int,
                 rng: np.random.Generator | None = None, name: str = "fusion_mlp"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.name = name
        d, o = input_dim, output_dim
        self.w1 = Tensor(xavier_uniform(rng, d, d), requires_grad=True)
        self.b1 = Tensor.zeros((1, d), requires_grad=True)
        self.w2 = Tensor(xavier_uniform(rng, d, d), requires_grad=True)
        self.b2 = Tensor.zeros((1, d), requires_grad=True)
        self.w3 = Tensor(xavier_uniform(rng, d, o), requires_grad=True)
        self.b3 = Tensor.zeros((1, o), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.{k}": v for k, v in
                (("w1", self.w1), ("b1", self.b1), ("w2", self.w2),
                 ("b2", self.b2), ("w3", self.w3), ("b3", self.b3))}

    def zero_output_layer(self):
        """Zero the last affine layer so the MLP output is identically zero."""
        self.w3.data[:] = 0.0
        self.b3.data[:] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        h = T.matmul(x, self.w1, self.b1).relu()
        h = T.matmul(h, self.w2, self.b2).relu()
        return T.matmul(h, self.w3, self.b3)


@dataclass(frozen=True)
class FusionLevel:
    """One fusion level of a plan: its raster, and its pairs
    ``pair_*[start:stop]``."""

    ny: int
    nx: int
    start: int
    stop: int


@dataclass
class FusionPlan:
    """Precomputed (pixel, neighbor) pairing of every fusion level for one
    cloud/camera pair, or for a batch of them (``merge_plans``).

    The point table holds once each point that some pair uses, so its image
    feature is sampled once however many pixels and levels ask for it. Pure
    geometry: reusable across training steps as long as the cloud, the
    calibration and the rasters stay fixed.
    """

    point_uv: np.ndarray        # M x 2, image coordinates (invalid pushed off-image)
    point_scene: np.ndarray     # M, the scene whose image each point samples
    pair_pixel: np.ndarray      # P, flat index into its level's (scene, iy, ix) rasters
    pair_point: np.ndarray      # P, the pair's row of the point table
    pair_offset: np.ndarray     # P x 3, x_j - x_i in meters; P x 0 without the offset input
    levels: dict[int, FusionLevel]      # by BEV group; pairs grouped level by level


def merge_plans(plans: list[FusionPlan]) -> FusionPlan:
    """One plan for a batch of scene plans with the same levels, joined level
    by level: scene n's points follow the earlier scenes' and sample image n,
    and its pixels are offset by n·ny·nx."""
    first = np.cumsum([0] + [len(p.point_uv) for p in plans[:-1]])
    pixel, point, offset, levels, start = [], [], [], {}, 0
    for key, level in plans[0].levels.items():
        for n, p in enumerate(plans):
            span = slice(p.levels[key].start, p.levels[key].stop)
            pixel.append(p.pair_pixel[span] + n * level.ny * level.nx)
            point.append(p.pair_point[span] + first[n])
            offset.append(p.pair_offset[span])
        stop = start + sum(map(len, pixel[-len(plans):]))
        levels[key] = FusionLevel(level.ny, level.nx, start, stop)
        start = stop
    return FusionPlan(np.concatenate([p.point_uv for p in plans]),
                      np.concatenate([p.point_scene + n for n, p in enumerate(plans)]),
                      np.concatenate(pixel), np.concatenate(point), np.concatenate(offset),
                      levels)


# off-image sentinel: bilinear sampling returns the zero vector there
_OFF_IMAGE = np.array([-10.0, -10.0])


def level_centers(grids: dict[int, BevGrid]) -> np.ndarray:
    """The metric (x, y) center of every pixel of every level, level after
    level, each pixel-major: the rows ``plan_fusion`` pairs."""
    return np.concatenate([np.zeros((0, 2)),
                           *(g.pixel_centers().reshape(-1, 2) for g in grids.values())])


def _plan(uv: np.ndarray, valid: np.ndarray, grids: dict[int, BevGrid],
          row: np.ndarray, j: np.ndarray, offset: np.ndarray) -> FusionPlan:
    """A one-scene plan from its pairs, grouped level by level: pair p joins
    point ``j[p]`` to pixel ``row[p]`` of all levels' pixels, counted level
    after level."""
    first = np.cumsum([0] + [g.ny * g.nx for g in grids.values()])
    level = np.searchsorted(first, row, side="right") - 1
    ends = np.cumsum(np.bincount(level, minlength=len(grids)))
    points, pair_point = np.unique(j, return_inverse=True)
    levels = {key: FusionLevel(g.ny, g.nx, int(a), int(b))
              for (key, g), a, b in zip(grids.items(), [0, *ends], ends)}
    return FusionPlan(np.where(valid[points, None], uv[points], _OFF_IMAGE),
                      np.zeros(points.size, np.intp), row - first[level],
                      pair_point, offset, levels)


def plan_fusion(cloud: PointCloud, cam: CalibratedCamera, grids: dict[int, BevGrid],
                centers: np.ndarray, nb: np.ndarray, geometric: bool) -> FusionPlan:
    """Pair every BEV pixel of every level in ``grids`` with its <= k nearest
    in-range LIDAR points ``nb`` (one row per ``level_centers`` row, -1
    padded, as ``BevKdTree.query`` returns them for ``centers``). The cloud
    is projected once for all levels. A ``geometric`` plan carries the
    offsets x_j - x_i; without them a neighbour that does not project into
    the image adds nothing and is dropped."""
    uv, valid = project_points(cloud, cam)
    keep = nb >= 0
    if not geometric:
        keep[keep] = valid[nb[keep]]
    row, rank = np.nonzero(keep)          # level by level, pixel-major, then rank
    j = nb[row, rank]
    offset = np.zeros((row.size, 0))
    if geometric:       # target pixel sits on the z=0 reference plane
        offset = cloud.points[j] - np.column_stack([centers[row], np.zeros(row.size)])
    return _plan(uv, valid, grids, row, j, offset)


def apply_fusion(image_features: Tensor, plan: FusionPlan,
                 mlps: dict[int, FusionMlp]) -> dict[int, Tensor]:
    """Sample the image features once at every point of the plan's table,
    then per level run its shared MLP over that level's (pixel, neighbor)
    pairs and sum per pixel. N x C x H x W image features give each level
    ``p`` of ``mlps`` an N x D_o x ny x nx map; one C x H x W map gives
    D_o x ny x nx maps."""
    c, o = image_features.shape[-3], plan.pair_offset.shape[1]
    for mlp in mlps.values():
        if c + o != mlp.input_dim:
            raise FusionConfigError(f"{c} image channels + {o} offset columns do not "
                                    f"match the MLP's input width {mlp.input_dim}")
    lead = image_features.shape[:-3]
    d = len(lead)
    sampled = T.bilinear_sample(image_features, plan.point_uv, plan.point_scene)  # M x C
    out = {}
    for key, mlp in mlps.items():
        level = plan.levels[key]
        span = slice(level.start, level.stop)
        feats = T.concat([T.gather_rows(sampled, plan.pair_point[span]),
                          Tensor(plan.pair_offset[span])], axis=1)     # P x D_i
        h = mlp.forward(feats)                                          # P x D_o
        rows = math.prod(lead) * level.ny * level.nx
        fused = T.scatter_add_rows(h, plan.pair_pixel[span], rows)     # N·ny·nx x D_o
        out[key] = fused.reshape(*lead, level.ny, level.nx, mlp.output_dim).transpose(
            (*range(d), d + 2, d, d + 1))
    return out


def continuous_fusion_forward(image_features: Tensor, cloud: PointCloud,
                              cam: CalibratedCamera, grid: BevGrid,
                              cfg: FusionConfig, mlp: FusionMlp) -> Tensor:
    """Dense BEV feature map h_i = sum_j MLP(concat[f_j, x_j - x_i])."""
    if (mlp.input_dim, mlp.output_dim) != (cfg.input_dim, cfg.output_dim):
        raise FusionConfigError(f"MLP dims ({mlp.input_dim}->{mlp.output_dim}) do not "
                                f"match config ({cfg.input_dim}->{cfg.output_dim})")
    centers = level_centers({0: grid})
    nb = build_bev_index(cloud).query(centers, cfg.k, cfg.max_dist)
    plan = plan_fusion(cloud, cam, {0: grid}, centers, nb, cfg.use_geometric_feature)
    return apply_fusion(image_features, plan, {0: mlp})[0]


def plan_discrete_fusion(cloud: PointCloud, cam: CalibratedCamera,
                         grids: dict[int, BevGrid]) -> FusionPlan:
    """Ablation pairing: on every level in ``grids``, each point that projects
    into the image feeds only the BEV pixel it falls into. The cloud is
    projected once for all levels; a point off a level's grid (NaN and
    infinite points too) drops out before its cell is cast to an integer."""
    uv, valid = project_points(cloud, cam)
    rows, js, first = [], [], 0
    for g in grids.values():
        cx, cy, _ = g.cell
        with np.errstate(over="ignore", invalid="ignore"):
            fx = (cloud.points[:, 0] - g.x_range[0]) / cx
            fy = (cloud.points[:, 1] - g.y_range[0]) / cy
        j = np.flatnonzero((fx >= 0) & (fx < g.nx) & (fy >= 0) & (fy < g.ny) & valid)
        rows.append(first + np.floor(fy[j]).astype(np.intp) * g.nx
                    + np.floor(fx[j]).astype(np.intp))
        js.append(j)
        first += g.ny * g.nx
    row = np.concatenate(rows)
    return _plan(uv, valid, grids, row, np.concatenate(js), np.zeros((row.size, 0)))
