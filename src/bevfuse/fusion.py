"""Continuous fusion: project image features onto a dense BEV raster through
the K nearest LIDAR points and an offset-conditioned shared MLP."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import (BevGrid, CalibratedCamera, PointCloud, build_bev_index,
                       project_points)
from .tensor import Tensor


class FusionConfigError(ValueError):
    pass


@dataclass
class FusionConfig:
    """Settings of a standalone layer (``continuous_fusion_forward``); defaults
    follow the best ablation setting (k=1, max_dist=10m, geometric feature on)."""

    k: int = 1
    max_dist: float = 10.0
    use_geometric_feature: bool = True
    input_dim: int = 8          # D_i: image channels (+3 when geometric feature on)
    output_dim: int = 8         # D_o: BEV channels at the insertion point

    def __post_init__(self):
        if self.k < 1:
            raise FusionConfigError("k must be >= 1")
        if self.input_dim < 1 or self.output_dim < 1:
            raise FusionConfigError("input_dim and output_dim must be >= 1")


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
        h = T.add_rowvec(T.matmul(x, self.w1), self.b1).relu()
        h = T.add_rowvec(T.matmul(h, self.w2), self.b2).relu()
        return T.add_rowvec(T.matmul(h, self.w3), self.b3)


@dataclass
class FusionPlan:
    """Precomputed (pixel, neighbor) pairing for one cloud/camera/raster triple,
    or for a batch of them (``merge_plans``).

    Pure geometry: reusable across training steps as long as the cloud, the
    calibration and the target raster stay fixed.
    """

    pair_pixel: np.ndarray      # P, flat index into the (scene, iy, ix) rasters
    pair_scene: np.ndarray      # P, the scene whose image each pair samples
    pair_uv: np.ndarray         # P x 2, image coordinates (invalid pushed off-image)
    pair_offset: np.ndarray     # P x 3, x_j - x_i in meters; P x 0 without the offset input
    ny: int
    nx: int


def merge_plans(plans: list[FusionPlan]) -> FusionPlan:
    """One plan for a batch of one-scene plans on the same raster: scene n's
    pixels are offset by n·ny·nx and its pairs sample image n."""
    npix = plans[0].ny * plans[0].nx
    return FusionPlan(np.concatenate([p.pair_pixel + n * npix for n, p in enumerate(plans)]),
                      np.concatenate([p.pair_scene + n for n, p in enumerate(plans)]),
                      np.concatenate([p.pair_uv for p in plans]),
                      np.concatenate([p.pair_offset for p in plans]),
                      plans[0].ny, plans[0].nx)


# off-image sentinel: bilinear sampling returns the zero vector there
_OFF_IMAGE = np.array([-10.0, -10.0])


def plan_fusion(cloud: PointCloud, cam: CalibratedCamera, grid: BevGrid,
                nb: np.ndarray, geometric: bool) -> FusionPlan:
    """Pair every BEV pixel with its <= k nearest in-range LIDAR points ``nb``
    (npix x k, pixel-major, -1 padded, as ``BevKdTree.query`` returns them for
    the pixel centers). A ``geometric`` plan carries the offsets x_j - x_i;
    without them a neighbour that does not project into the image adds nothing
    and is dropped."""
    centers = grid.pixel_centers().reshape(-1, 2)         # (ny*nx) x 2
    uv, valid = project_points(cloud, cam)
    keep = nb >= 0
    if not geometric:
        keep[keep] = valid[nb[keep]]
    pix, rank = np.nonzero(keep)                          # pixel-major, then rank
    j = nb[pix, rank]
    pair_uv = np.where(valid[j, None], uv[j], _OFF_IMAGE)
    offset = np.zeros((pix.size, 0))
    if geometric:       # target pixel sits on the z=0 reference plane
        offset = cloud.points[j] - np.column_stack([centers[pix], np.zeros(pix.size)])
    return FusionPlan(pix, np.zeros(pix.size, np.intp), pair_uv, offset, grid.ny, grid.nx)


def apply_fusion(image_features: Tensor, plan: FusionPlan, mlp: FusionMlp) -> Tensor:
    """Run the shared MLP over all (pixel, neighbor) pairs and sum per pixel.
    N x C x H x W image features give N x D_o x ny x nx maps; one C x H x W
    map gives one D_o x ny x nx map."""
    c, o = image_features.shape[-3], plan.pair_offset.shape[1]
    if c + o != mlp.input_dim:
        raise FusionConfigError(f"{c} image channels + {o} offset columns do not "
                                f"match the MLP's input width {mlp.input_dim}")
    lead = image_features.shape[:-3]
    rows = math.prod(lead) * plan.ny * plan.nx
    feats = T.concat([T.bilinear_sample(image_features, plan.pair_uv, plan.pair_scene),
                      Tensor(plan.pair_offset)], axis=1)        # P x D_i
    h = mlp.forward(feats)                                      # P x D_o
    out = T.scatter_add_rows(h, plan.pair_pixel, rows)          # N·ny·nx x D_o
    d = len(lead)
    return out.reshape(*lead, plan.ny, plan.nx, mlp.output_dim).transpose(
        (*range(d), d + 2, d, d + 1))


def continuous_fusion_forward(image_features: Tensor, cloud: PointCloud,
                              cam: CalibratedCamera, grid: BevGrid,
                              cfg: FusionConfig, mlp: FusionMlp) -> Tensor:
    """Dense BEV feature map h_i = sum_j MLP(concat[f_j, x_j - x_i])."""
    if (mlp.input_dim, mlp.output_dim) != (cfg.input_dim, cfg.output_dim):
        raise FusionConfigError(f"MLP dims ({mlp.input_dim}->{mlp.output_dim}) do not "
                                f"match config ({cfg.input_dim}->{cfg.output_dim})")
    nb = build_bev_index(cloud).query(grid.pixel_centers().reshape(-1, 2),
                                      cfg.k, cfg.max_dist)
    plan = plan_fusion(cloud, cam, grid, nb, cfg.use_geometric_feature)
    return apply_fusion(image_features, plan, mlp)


def plan_discrete_fusion(cloud: PointCloud, cam: CalibratedCamera,
                         grid: BevGrid) -> FusionPlan:
    """Ablation pairing: each point feeds only the BEV pixel it falls into."""
    uv, valid = project_points(cloud, cam)
    cx, cy, _ = grid.cell
    ix = np.floor((cloud.points[:, 0] - grid.x_range[0]) / cx).astype(np.intp)
    iy = np.floor((cloud.points[:, 1] - grid.y_range[0]) / cy).astype(np.intp)
    keep = (ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny) & valid
    pix = iy[keep] * grid.nx + ix[keep]
    return FusionPlan(pix, np.zeros(pix.size, np.intp), uv[keep], np.zeros((pix.size, 0)),
                      grid.ny, grid.nx)
