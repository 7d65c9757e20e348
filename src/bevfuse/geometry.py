"""Coordinate-frame math: LIDAR->camera projection, BEV voxelization, KNN on
the BEV plane, and bilinear sampling of image feature maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, bilinear_sample as _bilinear_many


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

    def __len__(self):
        return self.points.shape[0]


@dataclass
class CalibratedCamera:
    """3x4 projective map from homogeneous LIDAR-frame points to the image plane."""

    projection: np.ndarray                   # 3 x 4
    image_size: tuple[int, int]              # (height, width) pixels

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64).reshape(3, 4)
        if np.linalg.matrix_rank(self.projection) < 3:
            raise ValueError("camera projection matrix must have rank 3")


@dataclass
class BevGrid:
    """Metric <-> cell mapping for the bird's-eye-view raster.

    Voxel nodes sit at cell centers; the first node along an axis is at
    range_min + cell/2. ``nx`` spans x (forward), ``ny`` spans y (lateral),
    ``nz`` spans z (up).
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range, self.z_range):
            if not hi > lo:
                raise ValueError("BevGrid ranges must be non-degenerate")
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("BevGrid extents must be positive")

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
    false for points behind the camera or outside the image bounds. Invalid
    points keep their (possibly meaningless) uv values; callers must mask.
    """
    n = len(cloud)
    hom = np.concatenate([cloud.points, np.ones((n, 1))], axis=1)
    proj = hom @ cam.projection.T             # N x 3
    depth = proj[:, 2]
    safe = np.where(np.abs(depth) > 1e-12, depth, 1e-12)
    uv = proj[:, :2] / safe[:, None]
    h, w = cam.image_size
    valid = (depth > 0) & (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1) \
        & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1)
    return uv, valid


def voxelize(cloud: PointCloud, grid: BevGrid) -> Tensor:
    """Rasterize a point cloud into an nz x ny x nx occupancy-mass volume.

    Each in-range point spreads unit mass over the 8 surrounding voxel nodes
    with trilinear weights; corner weights falling outside the grid are
    clipped away.
    """
    out = np.zeros((grid.nz, grid.ny, grid.nx))
    if len(cloud) == 0:
        return Tensor(out)
    cx, cy, cz = grid.cell
    # fractional node coordinates: node i sits at range_min + (i + 0.5) * cell
    fx = (cloud.points[:, 0] - grid.x_range[0]) / cx - 0.5
    fy = (cloud.points[:, 1] - grid.y_range[0]) / cy - 0.5
    fz = (cloud.points[:, 2] - grid.z_range[0]) / cz - 0.5
    i0 = np.floor(fx).astype(np.intp)
    j0 = np.floor(fy).astype(np.intp)
    k0 = np.floor(fz).astype(np.intp)
    dx, dy, dz = fx - i0, fy - j0, fz - k0
    for di in (0, 1):
        wi = dx if di else 1 - dx
        ii = i0 + di
        for dj in (0, 1):
            wj = dy if dj else 1 - dy
            jj = j0 + dj
            for dk in (0, 1):
                wk = dz if dk else 1 - dz
                kk = k0 + dk
                wgt = wi * wj * wk
                ok = (ii >= 0) & (ii < grid.nx) & (jj >= 0) & (jj < grid.ny) \
                    & (kk >= 0) & (kk < grid.nz) & (wgt > 0)
                np.add.at(out, (kk[ok], jj[ok], ii[ok]), wgt[ok])
    return Tensor(out)


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


# (query, leaf) pairs measured at once; keeps each pairs x leaf temporary at 512 KB
_MERGE_ROWS = 1024
# squared-distance prefilters are widened far beyond their rounding error, so
# they never drop a point whose np.hypot distance would tie or win
_SLACK = 1.0 + 1e-9


class BevKdTree:
    """2D k-d tree over the (x, y) coordinates of a point cloud.

    Query results match the brute-force ``knn_bev`` definition exactly,
    including the lower-index tie-break. Immutable after construction.
    """

    __slots__ = ("xy", "_axis", "_child", "_box", "_members", "_member_xy")

    def __init__(self, cloud: PointCloud, leaf_size: int = 64):
        self.xy = cloud.points[:, :2].copy()
        n = self.xy.shape[0]
        # one row per node: split axis (-1 for a leaf), left and right child,
        # a box (xmin, ymin, xmax, ymax) holding its points; and leaf points
        rows, members = [], []
        if n:
            box = [*self.xy.min(axis=0), *self.xy.max(axis=0)]
            self._build(np.arange(n), box, 0, leaf_size, rows, members)
        table = np.array(rows, dtype=np.float64).reshape(-1, 7)
        self._axis = table[:, 0].astype(np.intp)
        self._child = table[:, 1:3].astype(np.intp)
        self._box = table[:, 3:]
        # padded rows: index n and NaN coordinates (never selected) past a
        # leaf's last point; inner nodes hold none
        self._members = np.full((len(members), max(map(len, members), default=0)), n)
        for node, seg in enumerate(members):
            self._members[node, :len(seg)] = seg
        self._member_xy = np.vstack([self.xy, [np.nan, np.nan]])[self._members]

    def _build(self, seg: np.ndarray, box: list, depth: int, leaf_size: int,
               rows: list, members: list) -> int:
        node = len(rows)
        rows.append([-1, -1, -1, *box])
        members.append(seg if len(seg) <= leaf_size else seg[:0])
        if len(seg) > leaf_size:
            axis, mid = depth % 2, len(seg) // 2
            seg = seg[np.argpartition(self.xy[seg, axis], mid)]
            # a child's box is its parent's cut at the split value
            left_box, right_box = list(box), list(box)
            left_box[axis + 2] = right_box[axis] = self.xy[seg[mid], axis]
            left = self._build(seg[:mid], left_box, depth + 1, leaf_size, rows, members)
            right = self._build(seg[mid:], right_box, depth + 1, leaf_size, rows, members)
            rows[node][:3] = [axis, left, right]
        return node

    def query(self, query, k: int, max_dist: float = np.inf):
        """The <= k nearest points to each (x, y) query, in ``knn_bev`` order.

        A single query of shape (2,) returns a list of point indices. An
        M x 2 batch returns an M x k intp array whose rows are padded with -1
        past their last neighbour.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
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
        # descend every query to its own leaf; the split value is the low edge
        # of the right child's box
        home = np.zeros(m, dtype=np.intp)
        while (inner := self._axis[home] >= 0).any():
            nodes, axis = home[inner], self._axis[home[inner]]
            right = q[inner, axis] >= self._box[self._child[nodes, 1], axis]
            home[inner] = self._child[nodes, right.astype(np.intp)]
        # each query's bound: its home leaf's k-th nearest point, or max_dist
        bound = np.full(m, float(max_dist)) ** 2
        if self._members.shape[1] >= k:
            for s in range(0, m, _MERGE_ROWS):
                d2 = self._offsets(q[s:s + _MERGE_ROWS], home[s:s + _MERGE_ROWS])[2]
                kth = np.partition(d2, k - 1, axis=1)[:, k - 1]     # NaN: < k points
                bound[s:s + _MERGE_ROWS] = np.fmin(bound[s:s + _MERGE_ROWS], kth)
        bound *= _SLACK
        # walk the tree level by level with every (query, node) pair whose box
        # may hold a point inside the bound, and collect the leaves reached
        qi, node = np.arange(m), np.zeros(m, dtype=np.intp)
        pairs = []
        while qi.size:
            qa, box = q[qi], self._box[node]
            gap = np.maximum(np.maximum(box[:, :2] - qa, qa - box[:, 2:]), 0.0)
            # not >: ties survive, and a NaN from a non-finite point never prunes
            near = ~((gap * gap).sum(axis=1) > bound[qi])
            qi, node = qi[near], node[near]
            leaf = self._axis[node] < 0
            pairs.append((qi[leaf], node[leaf]))
            qi, node = np.repeat(qi[~leaf], 2), self._child[node[~leaf]].ravel()
        qi, leaf = map(np.concatenate, zip(*pairs))
        if not qi.size:
            return out
        # every point of a reached leaf inside both bounds is a candidate
        hits = []
        for s in range(0, qi.size, _MERGE_ROWS):
            a, lf = qi[s:s + _MERGE_ROWS], leaf[s:s + _MERGE_ROWS]
            dx, dy, d2 = self._offsets(q[a], lf)
            r, c = np.nonzero(d2 <= bound[a, None])
            d = np.hypot(dx[r, c], dy[r, c])      # the same values knn_bev sorts
            hit = d <= max_dist
            hits.append((a[r[hit]], d[hit], self._members[lf[r[hit]], c[hit]]))
        # sort by (query, distance, index) once and keep the first k of each query
        hq, hd, hi = map(np.concatenate, zip(*hits))
        order = np.lexsort((hi, hd, hq))
        hq, hi = hq[order], hi[order]
        count = np.bincount(hq, minlength=m)
        rank = np.arange(hq.size) - np.repeat(np.cumsum(count) - count, count)
        keep = rank < k
        out[hq[keep], rank[keep]] = hi[keep]
        return out

    def _offsets(self, qa: np.ndarray, leaf: np.ndarray):
        """(dx, dy, squared distance) from query row p to every point of leaf
        ``leaf[p]``, NaN past the leaf's last point."""
        dx = self._member_xy[leaf, :, 0] - qa[:, 0, None]
        dy = self._member_xy[leaf, :, 1] - qa[:, 1, None]
        return dx, dy, dx * dx + dy * dy


def build_bev_index(cloud: PointCloud) -> BevKdTree:
    return BevKdTree(cloud)


def bilinear_sample(feature_map: Tensor, u: float, v: float) -> Tensor:
    """Bilinear blend of the 4 pixels around continuous (u, v); zero outside."""
    return _bilinear_many(feature_map, np.array([[u, v]])).reshape(feature_map.shape[0])
