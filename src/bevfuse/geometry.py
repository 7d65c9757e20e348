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


# queries, or (query, leaf) pairs, measured at once: each temporary holds at most
# _MERGE_ROWS x leaf width values (128 KB for 64-point leaves) or _MERGE_ROWS x leaves
_MERGE_ROWS = 256
# squared-distance prefilters are widened far beyond their rounding error, so
# they never drop a point whose np.hypot distance would tie or win
_SLACK = 1.0 + 1e-9


class BevKdTree:
    """2D k-d tree over the (x, y) coordinates of a point cloud, kept as the
    boxes and points of its leaves: median splits cut the cloud's box.

    Query results match the brute-force ``knn_bev`` definition exactly,
    including the lower-index tie-break. Immutable after construction.
    """

    __slots__ = ("xy", "_box", "_members", "_member_xy")

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
        self._member_xy = np.vstack([self.xy, [np.nan, np.nan]])[self._members]

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
        lo, hi = self._box[:, :2], self._box[:, 2:]
        bound = np.full(m, float(max_dist)) ** 2
        rows, hits, pairs = np.arange(m), [], []
        for s in range(0, m, _MERGE_ROWS):
            a, qa, b = (x[s:s + _MERGE_ROWS] for x in (rows, q, bound))
            # each leaf box's squared gap to the query; the nearest box is
            # the query's home leaf
            qx, qy = qa[:, :1], qa[:, 1:]
            gx = np.maximum(np.maximum(lo[:, 0] - qx, qx - hi[:, 0]), 0.0)
            gy = np.maximum(np.maximum(lo[:, 1] - qy, qy - hi[:, 1]), 0.0)
            g2 = gx * gx + gy * gy
            home = g2.argmin(axis=1)
            # (1) the bound: the home leaf's k-th nearest point, or max_dist;
            # the home leaf's points inside it are candidates
            d2 = self._d2(qa, home)
            if d2.shape[1] >= k:        # a NaN k-th point: fewer than k points
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
        for s in range(0, qi.size, _MERGE_ROWS):
            a, lf = qi[s:s + _MERGE_ROWS], leaf[s:s + _MERGE_ROWS]
            hits.append(self._hits(q, a, lf, self._d2(q[a], lf), bound[a], max_dist))
        # sort by (query, distance, index) once and keep the first k of each query
        hq, hd, hi = map(np.concatenate, zip(*hits))
        order = np.lexsort((hi, hd, hq))
        hq, hi = hq[order], hi[order]
        count = np.bincount(hq, minlength=m)
        rank = np.arange(hq.size) - np.repeat(np.cumsum(count) - count, count)
        keep = rank < k
        out[hq[keep], rank[keep]] = hi[keep]
        return out

    def _d2(self, qa: np.ndarray, leaf: np.ndarray) -> np.ndarray:
        """Squared distance from query row p to every point of leaf ``leaf[p]``,
        NaN past the leaf's last point."""
        dx = self._member_xy[leaf, :, 0] - qa[:, :1]
        dy = self._member_xy[leaf, :, 1] - qa[:, 1:]
        return np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)

    def _hits(self, q: np.ndarray, a: np.ndarray, leaf: np.ndarray, d2: np.ndarray,
              bound: np.ndarray, max_dist: float):
        """(query, distance, point) for each point of leaf ``leaf[p]`` inside
        both bounds of query ``a[p]``, given their ``_d2`` and squared bound."""
        r, c = np.nonzero(d2 <= bound[:, None])
        lf = leaf[r]
        dx, dy = (self._member_xy[lf, c] - q[a[r]]).T
        d = np.hypot(dx, dy)      # the same values knn_bev sorts
        hit = d <= max_dist
        return a[r[hit]], d[hit], self._members[lf[hit], c[hit]]


def build_bev_index(cloud: PointCloud) -> BevKdTree:
    return BevKdTree(cloud)


def bilinear_sample(feature_map: Tensor, u: float, v: float) -> Tensor:
    """Bilinear blend of the 4 pixels around continuous (u, v); zero outside."""
    return _bilinear_many(feature_map, np.array([[u, v]])).reshape(feature_map.shape[0])
