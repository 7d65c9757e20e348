import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevfuse import geometry
from bevfuse.config import load_config
from bevfuse.data import make_forward_camera
from bevfuse.geometry import (BevGrid, BevKdTree, CalibratedCamera, PointCloud,
                              bilinear_sample, build_bev_index, knn_bev,
                              project_points, voxelize)
from bevfuse.pipeline import build_scenes
from bevfuse.tensor import InputError


def _cloud(rng, n, lo=(0, -10, -1), hi=(30, 10, 2)):
    return PointCloud(rng.uniform(lo, hi, (n, 3)))


def test_pointcloud_validates_shape():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)))


def test_camera_requires_rank3():
    with pytest.raises(ValueError):
        CalibratedCamera(np.zeros((3, 4)), (10, 10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_camera_rejects_non_finite_projection_before_lapack(bad, capfd):
    # the rank's SVD fails on a NaN and LAPACK writes to stderr on an inf
    projection = make_forward_camera((10, 10), (5.0, 5.0)).projection.copy()
    projection[1, 3] = bad
    with pytest.raises(InputError, match="must be finite"):
        CalibratedCamera(projection, (10, 10))
    assert capfd.readouterr().err == ""


def test_projection_center_point():
    # a point straight ahead of the forward camera projects to the center
    cam = make_forward_camera((20, 40), (5.0, 5.0))
    cloud = PointCloud(np.array([[10.0, 0.0, 0.0]]))
    uv, valid = project_points(cloud, cam)
    assert valid[0]
    np.testing.assert_allclose(uv[0], [(40 - 1) / 2, (20 - 1) / 2])


def test_projection_lateral_offset_moves_u():
    cam = make_forward_camera((20, 40), (5.0, 5.0))
    cloud = PointCloud(np.array([[10.0, 0.0, 0.0], [10.0, 2.0, 0.0]]))
    uv, valid = project_points(cloud, cam)
    assert valid.all()
    # +y is to the left in the velodyne frame: u decreases
    assert uv[1, 0] < uv[0, 0]
    np.testing.assert_allclose(uv[1, 0], uv[0, 0] - 5.0 * 2.0 / 10.0)


def test_projection_behind_camera_invalid():
    cam = make_forward_camera((20, 40), (5.0, 5.0))
    uv, valid = project_points(PointCloud(np.array([[-5.0, 0.0, 0.0]])), cam)
    assert not valid[0]


def test_grid_pixel_centers():
    grid = BevGrid((0.0, 4.0), (-2.0, 2.0), (0.0, 1.0), 2, 2, 1)
    centers = grid.pixel_centers()
    assert centers.shape == (2, 2, 2)
    np.testing.assert_allclose(centers[0, 0], [1.0, -1.0])
    np.testing.assert_allclose(centers[1, 1], [3.0, 1.0])


def test_grid_downsample():
    grid = BevGrid((0.0, 8.0), (-4.0, 4.0), (0.0, 2.0), 8, 8, 2)
    half = grid.downsample(2)
    assert (half.nx, half.ny, half.nz) == (4, 4, 2)
    assert half.x_range == grid.x_range


def test_voxelize_mass_conservation_interior():
    rng = np.random.default_rng(0)
    grid = BevGrid((0.0, 8.0), (-4.0, 4.0), (0.0, 2.0), 8, 8, 4)
    pts = rng.uniform([1.0, -3.0, 0.3], [7.0, 3.0, 1.7], (50, 3))
    vox = voxelize(PointCloud(pts), grid)
    assert vox.shape == (4, 8, 8)
    # trilinear weights of interior points sum to exactly 1 per point
    np.testing.assert_allclose(vox.sum(), 50.0, atol=1e-9)


def test_voxelize_single_point_at_node():
    grid = BevGrid((0.0, 4.0), (-2.0, 2.0), (0.0, 2.0), 4, 4, 2)
    # node for cell (ix=1, iy=1, iz=0) sits at (1.5, -0.5, 0.5)
    vox = voxelize(PointCloud(np.array([[1.5, -0.5, 0.5]])), grid)
    assert vox[0, 1, 1] == 1.0
    assert vox.sum() == 1.0


def test_voxelize_empty_cloud():
    grid = BevGrid((0.0, 4.0), (-2.0, 2.0), (0.0, 1.0), 4, 4, 1)
    vox = voxelize(PointCloud(np.zeros((0, 3))), grid)
    assert vox.sum() == 0.0


def _voxelize_add_at(cloud, grid):
    """The eight-``np.add.at`` kernel ``voxelize`` replaced: the byte oracle.
    Finite clouds within the intp range only; it casts every point."""
    out = np.zeros((grid.nz, grid.ny, grid.nx))
    cx, cy, cz = grid.cell
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
    return out


def _assert_same_bytes(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_voxelize_matches_add_at_oracle_on_overfit_scenes():
    cfg = load_config(pathlib.Path(__file__).resolve().parent.parent / "configs" / "overfit.yaml")
    for scene in build_scenes(cfg):
        _assert_same_bytes(voxelize(scene.cloud, cfg.grid),
                           _voxelize_add_at(scene.cloud, cfg.grid))


def test_voxelize_matches_add_at_oracle_on_random_clouds():
    rng = np.random.default_rng(3)
    grid = BevGrid((-2.0, 6.0), (-3.0, 3.0), (-1.0, 2.0), 8, 12, 3)
    lo, hi = np.array([-2.0, -3.0, -1.0]), np.array([6.0, 3.0, 2.0])
    cell = np.array(grid.cell)
    for trial in range(300):
        n = int(rng.integers(0, 60))
        # spread up to two cells past every face so clipping is exercised
        pts = rng.uniform(lo - 2 * cell, hi + 2 * cell, (n, 3))
        # snap some points onto nodes and node planes (zero-weight corners)
        nodes = lo + (rng.integers(-2, [10, 14, 5], (n, 3)) + 0.5) * cell
        snap = rng.random((n, 3)) < 0.3
        pts[snap] = nodes[snap]
        cloud = PointCloud(pts)
        _assert_same_bytes(voxelize(cloud, grid), _voxelize_add_at(cloud, grid))


def test_voxelize_ignores_non_finite_and_huge_points():
    """NaN, infinite and far-away points add nothing, without a warning from
    the float-to-int cast (Tier-1 turns RuntimeWarning into an error)."""
    rng = np.random.default_rng(4)
    grid = BevGrid((0.0, 8.0), (-4.0, 4.0), (0.0, 2.0), 16, 16, 4)
    pts = rng.uniform([-1.0, -5.0, -0.5], [9.0, 5.0, 2.5], (200, 3))
    bad = np.array([[np.nan, 0.0, 1.0], [1.0, np.inf, 1.0], [1.0, 0.0, -np.inf],
                    [1e300, 0.0, 1.0], [1.0, -1e300, 1.0], [1.0, 0.0, 1.7e308],
                    [-1.7e308, np.nan, np.inf]])
    mixed = np.insert(pts, [0, 50, 50, 120, 199, 200, 200], bad, axis=0)
    _assert_same_bytes(voxelize(PointCloud(mixed), grid),
                       voxelize(PointCloud(pts), grid))


def _linear_scan(query, pts, k, max_dist):
    d = np.hypot(pts[:, 0] - query[0], pts[:, 1] - query[1])
    order = sorted(range(len(pts)), key=lambda i: (d[i], i))
    return [i for i in order[:k] if d[i] <= max_dist]


def test_knn_matches_linear_scan_oracle():
    rng = np.random.default_rng(1)
    cloud = _cloud(rng, 500)
    queries = rng.uniform([0, -10], [30, 10], (100, 2))
    for q in queries:
        for k, md in ((1, np.inf), (5, np.inf), (3, 2.0)):
            assert knn_bev(q, cloud, k, md) == _linear_scan(q, cloud.points, k, md)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 400), st.integers(1, 8), st.floats(0.5, 50.0),
       st.integers(0, 2 ** 31 - 1))
def test_kdtree_matches_brute_force(n, k, max_dist, seed):
    rng = np.random.default_rng(seed)
    cloud = _cloud(rng, n)
    tree = BevKdTree(cloud)
    for q in rng.uniform([-5, -15], [35, 15], (10, 2)):
        assert tree.query(q, k, max_dist) == knn_bev(q, cloud, k, max_dist)


def test_kdtree_duplicate_points_tie_break():
    pts = np.tile([[1.0, 1.0, 0.0]], (6, 1))
    cloud = PointCloud(pts)
    tree = build_bev_index(cloud)
    assert tree.query(np.array([1.0, 1.0]), 3) == [0, 1, 2]


@pytest.mark.parametrize("leaf_size", [0, -1, 0.5])
def test_kdtree_rejects_leaf_size_below_one(leaf_size):
    with pytest.raises(ValueError, match="leaf_size"):
        BevKdTree(PointCloud(np.zeros((3, 3))), leaf_size=leaf_size)


@pytest.mark.parametrize("xy, query", [
    # one point per leaf: the query's home leaf (x in [-1, 1]) holds index 1,
    # its neighbour (x = 1) index 0
    ([(1.0, 0.0), (-1.0, 0.0)], (0.0, 0.5)),
    # the first split is at x = 1, the query's own x, so it lies on the
    # boxes of both tied points' leaves
    ([(2.0, 0.0), (0.0, 0.0), (1.0, 5.0)], (1.0, 0.0)),
])
def test_kdtree_tie_across_leaves_keeps_lower_index(xy, query):
    cloud = PointCloud(np.column_stack([xy, np.zeros(len(xy))]))
    tree = BevKdTree(cloud, leaf_size=1)
    d = np.hypot(cloud.points[:2, 0] - query[0], cloud.points[:2, 1] - query[1])
    assert d[0] == d[1]                      # an exact tie, in two leaves
    leaf_of = {int(i): leaf for leaf, row in enumerate(tree._members) for i in row}
    assert leaf_of[0] != leaf_of[1]
    assert tree.query(np.array(query), 1) == [0]
    assert tree.query(np.array([query] * 3), 1).tolist() == [[0]] * 3
    assert tree.query(np.array([query]), 2).tolist() == [knn_bev(query, cloud, 2)] == [[0, 1]]


# the query's chunk budget, in values: 1 takes one query, then one (query,
# leaf) pair, per pass; 300 splits both passes into several chunks on most trees
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 120), st.booleans(), st.booleans(), st.integers(1, 12),
       st.sampled_from([0.0, 1e-9, 0.5, 1.0, 2.5, np.inf]),
       st.sampled_from([1, 2, 5, 64]), st.sampled_from([40, 773]),
       st.sampled_from([1, 300, geometry._CHUNK_VALUES]), st.integers(0, 2 ** 31 - 1))
def test_kdtree_batched_query_matches_knn_bev(n, lattice, with_nan, k, max_dist,
                                              leaf_size, m, budget, seed):
    rng = np.random.default_rng(seed)
    if lattice:     # integer points and queries: exact distance ties everywhere
        xy = rng.integers(-4, 5, (n, 2)).astype(np.float64)
        queries = rng.integers(-12, 13, (m, 2)).astype(np.float64)
    else:
        xy = rng.uniform(-5, 5, (n, 2))
        queries = rng.uniform(-20, 20, (m, 2))      # many outside the cloud's box
    if n:
        xy = np.concatenate([xy, xy[rng.integers(0, n, n // 4)]])    # duplicates
        if with_nan:    # knn_bev never returns a point with a NaN coordinate
            xy[rng.integers(0, n), 0] = np.nan
    cloud = PointCloud(np.column_stack([xy, rng.uniform(-1, 1, len(xy))]))
    tree = BevKdTree(cloud, leaf_size=leaf_size)
    with mock.patch.object(geometry, "_CHUNK_VALUES", budget):
        nb = tree.query(queries, k, max_dist)
    width = max(1, min(k, len(cloud)))     # no column that could only hold -1
    assert nb.shape == (len(queries), width) and nb.dtype == np.intp
    for q, row in zip(queries, nb):
        ref = knn_bev(q, cloud, k, max_dist)
        assert row.tolist() == ref + [-1] * (width - len(ref))
    for q, row in zip(queries[:40], nb):        # a single query gives its row
        assert tree.query(q, k, max_dist) == row[row >= 0].tolist()


@pytest.mark.parametrize("k", [1, 8])
def test_kdtree_query_of_a_large_cloud_keeps_its_temporaries_bounded(k):
    # 20,000 points (512 leaves) and 4,000 queries: the box test alone is
    # 2 million (query, leaf) gaps, 16 MB if it were held at once
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform((0, -40, -1), (80, 40, 2), (20000, 3)))
    queries = rng.uniform((0, -40), (80, 40), (4000, 2))
    tree = BevKdTree(cloud)
    tracemalloc.start()
    try:
        nb = tree.query(queries, k, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6       # the output and candidates included
    for i in range(0, len(queries), 97):
        ref = knn_bev(queries[i], cloud, k, 10.0)
        assert nb[i].tolist() == ref + [-1] * (k - len(ref))


def test_bilinear_sample_matches_tensor_impl():
    from bevfuse import tensor as T
    from bevfuse.tensor import Tensor
    rng = np.random.default_rng(3)
    fm = Tensor(rng.standard_normal((3, 5, 6)))
    uv = rng.uniform(-1, 7, (20, 2))
    a = T.bilinear_sample(fm.reshape(1, *fm.shape), uv).data
    for i, (u, v) in enumerate(uv):
        np.testing.assert_allclose(bilinear_sample(fm, u, v).data, a[i], atol=1e-12)
