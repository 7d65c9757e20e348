import numpy as np
import pytest

from bevfuse import tensor as T
from bevfuse.data import make_forward_camera
from bevfuse.fusion import (FusionConfig, FusionConfigError, FusionMlp,
                            apply_fusion, continuous_fusion_forward,
                            plan_discrete_fusion, plan_fusion)
from bevfuse.geometry import (BevGrid, PointCloud, bilinear_sample,
                              build_bev_index, knn_bev, project_points)
from bevfuse.tensor import Tensor


def _setup(seed=0, n=40, k=3, channels=4):
    rng = np.random.default_rng(seed)
    cam = make_forward_camera((12, 16), (4.0, 4.0))
    cloud = PointCloud(rng.uniform([1, -4, 0], [9, 4, 2], (n, 3)))
    grid = BevGrid((0.0, 10.0), (-5.0, 5.0), (0.0, 2.0), 8, 8, 1)
    cfg = FusionConfig(k=k, max_dist=4.0, input_dim=channels + 3, output_dim=5)
    img = Tensor(rng.standard_normal((channels, 12, 16)))
    mlp = FusionMlp(channels + 3, 5, rng)
    return rng, cam, cloud, grid, cfg, img, mlp


def _neighbours(cloud, grid, k, max_dist):
    return build_bev_index(cloud).query(grid.pixel_centers().reshape(-1, 2), k, max_dist)


def _loop_reference(img, cloud, cam, grid, cfg, mlp):
    """Direct loop-nest transcription of the layer definition."""
    centers = grid.pixel_centers()
    uv, valid = project_points(cloud, cam)
    out = np.zeros((cfg.output_dim, grid.ny, grid.nx))
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            cx, cy = centers[iy, ix]
            for j in knn_bev((cx, cy), cloud, cfg.k, cfg.max_dist):
                if valid[j]:
                    f = bilinear_sample(img, uv[j, 0], uv[j, 1]).data
                else:
                    f = np.zeros(img.shape[0])
                off = cloud.points[j] - np.array([cx, cy, 0.0])
                x = np.concatenate([f, off])
                h1 = np.maximum(x @ mlp.w1.data + mlp.b1.data[0], 0.0)
                h2 = np.maximum(h1 @ mlp.w2.data + mlp.b2.data[0], 0.0)
                out[:, iy, ix] += h2 @ mlp.w3.data + mlp.b3.data[0]
    return out


def test_forward_matches_loop_nest_reference():
    _, cam, cloud, grid, cfg, img, mlp = _setup()
    fused = continuous_fusion_forward(img, cloud, cam, grid, cfg, mlp)
    ref = _loop_reference(img, cloud, cam, grid, cfg, mlp)
    np.testing.assert_allclose(fused.data, ref, atol=1e-10)


def test_plan_is_reusable_and_matches_direct_forward():
    _, cam, cloud, grid, cfg, img, mlp = _setup(seed=5)
    plan = plan_fusion(cloud, cam, grid, _neighbours(cloud, grid, cfg.k, cfg.max_dist), True)
    a = apply_fusion(img, plan, mlp).data
    b = continuous_fusion_forward(img, cloud, cam, grid, cfg, mlp).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("geo", [True, False])
def test_plan_matches_per_pixel_knn_reference(geo):
    rng = np.random.default_rng(4)
    cam = make_forward_camera((12, 16), (4.0, 4.0))
    # some points behind the camera or off-image: their projections are invalid
    cloud = PointCloud(rng.uniform([-4, -6, 0], [10, 6, 2], (60, 3)))
    grid = BevGrid((0.0, 10.0), (-5.0, 5.0), (0.0, 2.0), 8, 8, 1)
    k, max_dist = 3, 1.5
    uv, valid = project_points(cloud, cam)
    pix, uvs, offs = [], [], []
    for i, (cx, cy) in enumerate(grid.pixel_centers().reshape(-1, 2)):
        for j in knn_bev((cx, cy), cloud, k, max_dist):
            if valid[j] or geo:
                pix.append(i)
                uvs.append(uv[j] if valid[j] else [-10.0, -10.0])
                offs.append(cloud.points[j] - np.array([cx, cy, 0.0]))
    # short neighbour lists occur, and off-image sentinels when geo is on
    assert np.bincount(pix, minlength=grid.nx * grid.ny).min() < k
    assert (np.array(uvs) == -10.0).any() == geo
    plan = plan_fusion(cloud, cam, grid, _neighbours(cloud, grid, k, max_dist), geo)
    assert plan.pair_pixel.dtype == np.intp
    assert np.array_equal(plan.pair_pixel, np.array(pix, dtype=np.intp))
    assert np.array_equal(plan.pair_uv, np.array(uvs))
    if geo:
        assert np.array_equal(plan.pair_offset, np.array(offs))
    else:       # no offset input: no offset columns
        assert plan.pair_offset.shape == (len(pix), 0)


def test_zeroed_output_layer_produces_zero_map():
    _, cam, cloud, grid, cfg, img, mlp = _setup(seed=1)
    mlp.zero_output_layer()
    fused = continuous_fusion_forward(img, cloud, cam, grid, cfg, mlp)
    np.testing.assert_array_equal(fused.data, 0.0)


def test_empty_cloud_gives_zero_map():
    _, cam, _, grid, cfg, img, mlp = _setup()
    fused = continuous_fusion_forward(img, PointCloud(np.zeros((0, 3))),
                                      cam, grid, cfg, mlp)
    assert fused.shape == (5, 8, 8)
    np.testing.assert_array_equal(fused.data, 0.0)


def test_empty_plan_gives_every_parameter_a_zero_grad():
    _, cam, _, grid, cfg, img, mlp = _setup()
    img = Tensor(img.data, requires_grad=True)
    empty = PointCloud(np.zeros((0, 3)))
    plan = plan_fusion(empty, cam, grid, _neighbours(empty, grid, cfg.k, cfg.max_dist), True)
    apply_fusion(img, plan, mlp).sum().backward()
    for p in [img, *mlp.parameters().values()]:
        assert p.grad is not None
        np.testing.assert_array_equal(p.grad, 0.0)


def test_nogeo_mode_drops_invalid_projections():
    rng, cam, _, grid, _, img, _ = _setup()
    # one point behind the camera, one in front
    cloud = PointCloud(np.array([[-3.0, 0.0, 0.5], [5.0, 0.0, 0.5]]))
    nb = _neighbours(cloud, grid, 1, 100.0)
    plan = plan_fusion(cloud, cam, grid, nb, False)
    # pairs that would sample the invalid point carry nothing and are dropped
    assert (plan.pair_uv >= 0).all()
    assert plan.pair_offset.shape == (plan.pair_pixel.size, 0)
    plan_geo = plan_fusion(cloud, cam, grid, nb, True)
    assert plan_geo.pair_pixel.size >= plan.pair_pixel.size


def test_discrete_plan_maps_points_to_own_pixel():
    _, cam, cloud, grid, _, img, _ = _setup(n=25)
    plan = plan_discrete_fusion(cloud, cam, grid)
    uv, valid = project_points(cloud, cam)
    cx, cy, _ = grid.cell
    expected = []
    for j in range(len(cloud)):
        ix = int(np.floor((cloud.points[j, 0] - grid.x_range[0]) / cx))
        iy = int(np.floor((cloud.points[j, 1] - grid.y_range[0]) / cy))
        if 0 <= ix < grid.nx and 0 <= iy < grid.ny and valid[j]:
            expected.append(iy * grid.nx + ix)
    assert sorted(plan.pair_pixel.tolist()) == sorted(expected)
    assert plan.pair_offset.shape == (len(expected), 0)


def test_dim_mismatch_raises():
    rng, cam, cloud, grid, cfg, img, mlp = _setup()
    bad = FusionMlp(cfg.input_dim + 1, cfg.output_dim, rng)
    with pytest.raises(FusionConfigError):
        continuous_fusion_forward(img, cloud, cam, grid, cfg, bad)
    bad_cfg = FusionConfig(k=1, input_dim=img.shape[0] + 2, output_dim=5)
    with pytest.raises(FusionConfigError):
        continuous_fusion_forward(img, cloud, cam, grid, bad_cfg, mlp)


def test_apply_fusion_checks_width_against_mlp():
    rng, cam, cloud, grid, cfg, img, mlp = _setup()
    nb = _neighbours(cloud, grid, cfg.k, cfg.max_dist)
    nogeo = plan_fusion(cloud, cam, grid, nb, False)
    geo = plan_fusion(cloud, cam, grid, nb, True)
    empty = PointCloud(np.zeros((0, 3)))
    geo_empty = plan_fusion(empty, cam, grid, _neighbours(empty, grid, 1, 4.0), True)
    assert geo_empty.pair_offset.shape == (0, 3)
    narrow = FusionMlp(img.shape[0], 5, rng)
    assert apply_fusion(img, nogeo, narrow).shape == (5, grid.ny, grid.nx)
    assert apply_fusion(img, geo, mlp).shape == (5, grid.ny, grid.nx)
    for plan, net in ((nogeo, mlp), (geo, narrow), (geo_empty, narrow)):
        with pytest.raises(FusionConfigError):
            apply_fusion(img, plan, net)


def test_fusion_config_validation():
    with pytest.raises(FusionConfigError):
        FusionConfig(k=0)
    with pytest.raises(FusionConfigError):
        FusionConfig(input_dim=0)
