"""Coordinate-frame math: LIDAR->camera projection, BEV voxelization, KNN on
the BEV plane, and bilinear sampling of image feature maps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .domains import Checked, Finite, Increasing, Pos
from .tensor import InputError, Tensor, _scatter_rows, bilinear_sample as _bilinear_many


@dataclass
class PointCloud:
    """LIDAR returns in the sensor frame, meters. Index identifies a point."""

    points: np.ndarray                       # N x 3
    intensity: np.ndarray | None = None      # N, optional

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be N x 3, got {pts.shape}")
        self.points = pts
        if self.intensity is not None:
            self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
            if self.intensity.shape[0] != pts.shape[0]:
                raise ValueError(f"intensity must hold one value per point ({pts.shape[0]}), "
                                 f"got {self.intensity.shape[0]}")

    def __len__(self):
        return self.points.shape[0]


@dataclass
class CalibratedCamera(Checked):
    """3x4 projective map from homogeneous LIDAR-frame points to the image plane."""

    projection: np.ndarray                   # 3 x 4
    image_size: Annotated[tuple[int, int], Pos]      # (height, width) pixels

    def __post_init__(self):
        super().__post_init__()
        self.projection = np.asarray(self.projection, dtype=np.float64).reshape(3, 4)
        if np.linalg.matrix_rank(self.projection) < 3:
            raise InputError("camera projection matrix must have rank 3")


@dataclass
class BevGrid(Checked):
    """Metric <-> cell mapping for the bird's-eye-view raster.

    Voxel nodes sit at cell centers; the first node along an axis is at
    range_min + cell/2. ``nx`` spans x (forward), ``ny`` spans y (lateral),
    ``nz`` spans z (up).
    """

    x_range: Annotated[tuple[float, float], Finite, Increasing]
    y_range: Annotated[tuple[float, float], Finite, Increasing]
    z_range: Annotated[tuple[float, float], Finite, Increasing]
    nx: Annotated[int, Pos]
    ny: Annotated[int, Pos]
    nz: Annotated[int, Pos]

    @property
    def cell(self) -> tuple[float, float, float]:
        return ((self.x_range[1] - self.x_range[0]) / self.nx,
                (self.y_range[1] - self.y_range[0]) / self.ny,
                (self.z_range[1] - self.z_range[0]) / self.nz)

    def downsample(self, factor: int) -> "BevGrid":
        """Same metric extents at 1/factor the planar resolution."""
        if self.nx % factor or self.ny % factor:
            raise ValueError(f"grid {self.nx}x{self.ny} not divisible by {factor}")
        return BevGrid(self.x_range, self.y_range, self.z_range,
                       self.nx // factor, self.ny // factor, self.nz)

    def pixel_centers(self) -> np.ndarray:
        """Metric (x, y) center of every BEV pixel, shape ny x nx x 2."""
        cx, cy, _ = self.cell
        xs = self.x_range[0] + (np.arange(self.nx) + 0.5) * cx
        ys = self.y_range[0] + (np.arange(self.ny) + 0.5) * cy
        gx, gy = np.meshgrid(xs, ys)         # ny x nx
        return np.stack([gx, gy], axis=-1)


def project_points(cloud: PointCloud, cam: CalibratedCamera) -> tuple[np.ndarray, np.ndarray]:
    """Project LIDAR points to continuous image coordinates.

    Returns (uv, valid) where uv is N x 2 sub-pixel coordinates and valid is
    false for points behind the camera or outside the image bounds, and for
    points whose projection overflows or is not finite. Invalid points keep
    their (possibly meaningless) uv values; callers must mask.
    """
    n = len(cloud)
    hom = np.concatenate([cloud.points, np.ones((n, 1))], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        proj = hom @ cam.projection.T             # N x 3
        depth = proj[:, 2]
        safe = np.where(np.abs(depth) > 1e-12, depth, 1e-12)
        uv = proj[:, :2] / safe[:, None]
    h, w = cam.image_size
    valid = (depth > 0) & (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1) \
        & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1) & np.isfinite(proj).all(axis=1)
    return uv, valid


def voxelize(cloud: PointCloud, grid: BevGrid) -> np.ndarray:
    """Rasterize a point cloud into an nz x ny x nx occupancy-mass volume.

    Each in-range point spreads unit mass over the 8 surrounding voxel nodes
    with trilinear weights; corner weights falling outside the grid are
    clipped away. A point whose node coordinate lies outside (-1, n) on some
    axis touches no node; it drops out before the integer cast, and so do NaN
    and infinite points.
    """
    n = np.array([grid.nx, grid.ny, grid.nz])
    lo = (grid.x_range[0], grid.y_range[0], grid.z_range[0])
    # fractional node coordinates: node i sits at range_min + (i + 0.5) * cell
    with np.errstate(over="ignore"):
        f = (cloud.points - lo) / grid.cell - 0.5
    f = f[((f > -1) & (f < n)).all(axis=1)].T                      # 3 x N
    i0 = np.floor(f).astype(np.intp)
    d = f - i0
    # per axis, each point's lower and upper node (2 x 3 x N) and weight; a
    # node off the grid adds weight 0.0 to node 0, which changes no sum
    node = np.stack([i0, i0 + 1])
    on = (node >= 0) & (node < n[:, None])
    ix, iy, iz = np.where(on, node, 0).swapaxes(0, 1)
    wx, wy, wz = np.where(on, np.stack([1 - d, d]), 0.0).swapaxes(0, 1)
    # the 8 corners in (di, dj, dk) order, each over every point
    flat = (iz * grid.ny + iy[:, None]) * grid.nx + ix[:, None, None]
    wgt = wx[:, None, None] * wy[:, None] * wz
    out = _scatter_rows(flat, wgt, (grid.nz * grid.ny * grid.nx,))
    return out.reshape(grid.nz, grid.ny, grid.nx)


def knn_bev(query, cloud: PointCloud, k: int, max_dist: float = np.inf) -> list[int]:
    """Brute-force k nearest points to a (x, y) query over the 2D BEV plane.

    Results are sorted by ascending distance, ties broken by lower point
    index; only points within max_dist qualify.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(cloud) == 0:
        return []
    q = np.asarray(query, dtype=np.float64)
    d = np.hypot(cloud.points[:, 0] - q[0], cloud.points[:, 1] - q[1])
    order = np.argsort(d, kind="stable")      # stable sort = index tie-break
    return [int(i) for i in order[:k] if d[i] <= max_dist]


# values per temporary of a query pass, 128 KB of float64: a chunk of queries
# holds its box gaps to every leaf and its distances to every point of its
# home leaf, and a near-leaf pass its pairs' distances to every point of their
# leaf. Larger temporaries gained no speed and kept more memory: one pass over
# a plan's 1,360 pixel centres raised eval_sweep's peak RSS by 0.3-0.6 MB, and
# 4x chunks made a 20,000-point cloud's query fault in fresh pages ~100x as
# often (glibc's default malloc settings)
_CHUNK_VALUES = 1 << 14
# squared-distance prefilters are widened far beyond their rounding error, so
# they never drop a point whose np.hypot distance would tie or win
_SLACK = 1.0 + 1e-9


class BevKdTree:
    """2D k-d tree over the (x, y) coordinates of a point cloud, kept as the
    boxes and points of its leaves: median splits cut the cloud's box.

    Each leaf is one row of three leaves x width arrays, its point indices
    and their x and y, so a query gathers a leaf as two contiguous rows.
    Queries run in chunks sized by work, not by a query count: a chunk's box
    gaps and leaf distances hold at most ``_CHUNK_VALUES`` values each,
    however many leaves or points the tree has.
    Query results match the brute-force ``knn_bev`` definition exactly,
    including the lower-index tie-break. A query asks for 1 to n neighbours
    of n points: a column past the cloud's size could only hold -1.
    Immutable after construction.
    """

    __slots__ = ("xy", "_box", "_members", "_mx", "_my")

    def __init__(self, cloud: PointCloud, leaf_size: int = 64):
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.xy = cloud.points[:, :2].copy()
        n = self.xy.shape[0]
        # one row per leaf: a box (xmin, ymin, xmax, ymax) holding its points
        boxes, members = [], []
        if n:
            box = [*self.xy.min(axis=0), *self.xy.max(axis=0)]
            self._build(np.arange(n), box, 0, leaf_size, boxes, members)
        self._box = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        # padded rows: index n and NaN coordinates (never selected) past a
        # leaf's last point
        self._members = np.full((len(members), max(map(len, members), default=0)), n)
        for leaf, seg in enumerate(members):
            self._members[leaf, :len(seg)] = seg
        padded = np.vstack([self.xy, [np.nan, np.nan]])
        self._mx, self._my = padded[:, 0][self._members], padded[:, 1][self._members]

    def _build(self, seg: np.ndarray, box: list, depth: int, leaf_size: int,
               boxes: list, members: list):
        if len(seg) <= leaf_size:
            boxes.append(box)
            members.append(seg)
            return
        axis, mid = depth % 2, len(seg) // 2
        seg = seg[np.argpartition(self.xy[seg, axis], mid)]
        # a child's box is its parent's cut at the split value
        left_box, right_box = list(box), list(box)
        left_box[axis + 2] = right_box[axis] = self.xy[seg[mid], axis]
        self._build(seg[:mid], left_box, depth + 1, leaf_size, boxes, members)
        self._build(seg[mid:], right_box, depth + 1, leaf_size, boxes, members)

    def query(self, query, k: int, max_dist: float = np.inf):
        """The <= k nearest points to each (x, y) query, in ``knn_bev`` order.

        A single query of shape (2,) returns a list of point indices. An
        M x 2 batch over n points returns an M x max(1, min(k, n)) intp
        array whose rows are padded with -1 past their last neighbour.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        k = max(1, min(k, self.xy.shape[0]))
        q = np.asarray(query, dtype=np.float64)
        if q.ndim == 1:
            row = self._knn(q[:2].reshape(1, 2), k, max_dist)[0]
            return row[row >= 0].tolist()
        return self._knn(q.reshape(-1, 2), k, max_dist)

    def _knn(self, q: np.ndarray, k: int, max_dist: float) -> np.ndarray:
        m, n = q.shape[0], self.xy.shape[0]
        out = np.full((m, k), -1, dtype=np.intp)
        if not (n and m):
            return out
        lo, hi = self._box[:, :2], self._box[:, 2:]
        bound = np.full(m, float(max_dist)) ** 2
        rows, hits, pairs = np.arange(m), [], []
        step = max(1, _CHUNK_VALUES // max(self._mx.shape))
        for s in range(0, m, step):
            a, qa, b = (x[s:s + step] for x in (rows, q, bound))
            # each leaf box's squared gap to the query; the nearest box is
            # the query's home leaf
            qx, qy = qa[:, :1], qa[:, 1:]
            gx = np.maximum(np.maximum(lo[:, 0] - qx, qx - hi[:, 0]), 0.0)
            gy = np.maximum(np.maximum(lo[:, 1] - qy, qy - hi[:, 1]), 0.0)
            with np.errstate(over="ignore"):    # a far box's gap may square to inf
                g2 = gx * gx + gy * gy
            home = g2.argmin(axis=1)
            # (1) the bound: the home leaf's k-th nearest point, or max_dist;
            # the home leaf's points inside it are candidates. Both reductions
            # skip the NaN padding: fmin ignores it, partition puts it last
            d2 = self._d2(qa, home)
            if k == 1:
                np.fmin(b, np.fmin.reduce(d2, axis=1), out=b)
            elif d2.shape[1] >= k:      # a NaN k-th point: fewer than k points
                np.fmin(b, np.partition(d2, k - 1, axis=1)[:, k - 1], out=b)
            b *= _SLACK
            hits.append(self._hits(q, a, home, d2, b, max_dist))
            # (2) one box test against every other leaf; not >: ties survive,
            # and a NaN from a non-finite point never prunes
            near = ~(g2 > b[:, None])
            near[np.arange(len(a)), home] = False
            r, c = np.nonzero(near)
            pairs.append((a[r], c))
        # every point of a near leaf inside both bounds is a candidate too
        qi, leaf = map(np.concatenate, zip(*pairs))
        step = max(1, _CHUNK_VALUES // self._mx.shape[1])
        for s in range(0, qi.size, step):
            a, lf = qi[s:s + step], leaf[s:s + step]
            hits.append(self._hits(q, a, lf, self._d2(q[a], lf), bound[a], max_dist))
        # sort by (query, distance, index) once and keep the first k of each query
        hq, hd, hi = map(np.concatenate, zip(*hits))
        # index and query keys in their narrowest unsigned type: numpy sorts
        # keys of 16 bits or less by radix, 2.5x faster here than intp keys
        order = np.lexsort((hi.astype(np.min_scalar_type(n)), hd,
                            hq.astype(np.min_scalar_type(m))))
        hq, hi = hq[order], hi[order]
        count = np.bincount(hq, minlength=m)
        rank = np.arange(hq.size) - np.repeat(np.cumsum(count) - count, count)
        keep = rank < k
        out[hq[keep], rank[keep]] = hi[keep]
        return out

    def _d2(self, qa: np.ndarray, leaf: np.ndarray) -> np.ndarray:
        """Squared distance from query row p to every point of leaf ``leaf[p]``,
        NaN past the leaf's last point; a far point's may overflow to inf."""
        dx, dy = self._mx.take(leaf, axis=0), self._my.take(leaf, axis=0)
        with np.errstate(over="ignore"):
            dx -= qa[:, :1]
            dy -= qa[:, 1:]
            dx *= dx
            dy *= dy
            dx += dy
        return dx

    def _hits(self, q: np.ndarray, a: np.ndarray, leaf: np.ndarray, d2: np.ndarray,
              bound: np.ndarray, max_dist: float):
        """(query, distance, point) for each point of leaf ``leaf[p]`` inside
        both bounds of query ``a[p]``, given their ``_d2`` and squared bound."""
        width = d2.shape[1]
        f = np.flatnonzero(d2 <= bound[:, None])
        r = f // width
        f += (leaf[r] - r) * width      # from d2's row p to the leaf's own row
        ar = a[r]
        d = np.hypot(self._mx.ravel()[f] - q[ar, 0], self._my.ravel()[f] - q[ar, 1])
        hit = d <= max_dist     # the same values knn_bev sorts
        return ar[hit], d[hit], self._members.ravel()[f[hit]]


def build_bev_index(cloud: PointCloud) -> BevKdTree:
    return BevKdTree(cloud)


def bilinear_sample(feature_map: Tensor, u: float, v: float) -> Tensor:
    """Bilinear blend of the 4 pixels of a C x H x W map around continuous
    (u, v): a C vector, zero outside."""
    return _bilinear_many(feature_map.reshape(1, *feature_map.shape),
                          np.array([[u, v]])).reshape(feature_map.shape[0])
