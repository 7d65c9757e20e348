import numpy as np
import pytest

from bevfuse import backbone
from bevfuse.backbone import (MODES, BackboneConfig, Conv2dLayer, DetectorModel,
                              FpnCombiner, GroupSpec, ImageStream,
                              ResidualBlock, ResidualGroup)
from bevfuse.config import ExperimentConfig, FusionSection
from bevfuse.data import AugmentationConfig, augment, generate_scene
from bevfuse.fusion import level_centers, plan_discrete_fusion, plan_fusion
from bevfuse.geometry import BevGrid, BevKdTree, PointCloud, build_bev_index, voxelize
from bevfuse.pipeline import build_model, build_scenes, miniature_config
from bevfuse.tensor import Tensor


def _rng():
    return np.random.default_rng(0)


def test_backbone_config_validates_strides():
    with pytest.raises(ValueError):
        BackboneConfig(fusion_points=(9,))
    with pytest.raises(ValueError, match="distinct"):
        BackboneConfig(fusion_points=(1, 1))


def test_residual_block_shapes_and_skip():
    blk = ResidualBlock(4, 8, 2, _rng(), "b")
    out = blk.forward(Tensor(np.random.default_rng(1).standard_normal((4, 8, 8))))
    assert out.shape == (8, 4, 4)
    assert blk.skip is not None
    same = ResidualBlock(4, 4, 1, _rng(), "s")
    assert same.skip is None


def test_residual_group_block_count():
    g = ResidualGroup(4, GroupSpec(6, 8), 2, _rng(), "g")
    assert len(g.blocks) == 3


def test_fpn_combiner_output_at_finest_scale():
    rng = _rng()
    comb = FpnCombiner([4, 8, 16], 6, rng, "fpn")
    maps = [Tensor(rng.standard_normal((4, 8, 8))),
            Tensor(rng.standard_normal((8, 4, 4))),
            Tensor(rng.standard_normal((16, 2, 2)))]
    out = comb.forward(maps)
    assert out.shape == (6, 8, 8)


def test_fpn_combiner_rejects_bad_pyramid():
    rng = _rng()
    comb = FpnCombiner([4, 8], 6, rng, "fpn")
    maps = [Tensor(np.zeros((4, 8, 8))), Tensor(np.zeros((8, 3, 3)))]
    with pytest.raises(ValueError):
        comb.forward(maps)
    with pytest.raises(ValueError):
        comb.forward(maps[:1])


def test_image_stream_divisibility_check():
    cfg = BackboneConfig(image_groups=[GroupSpec(2, 4), GroupSpec(2, 8)])
    stream = ImageStream(3, cfg, 6, _rng())
    with pytest.raises(ValueError):
        stream.forward(Tensor(np.zeros((3, 7, 8))))


@pytest.mark.parametrize("mode", ["continuous", "continuous_nogeo", "discrete"])
def test_fusion_mlp_layer_is_one_matmul_node(mode, monkeypatch):
    cfg = miniature_config()
    cfg.mode = mode
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    plan = model.make_plans(scene.cloud, scene.cam)
    ops = []
    result = Tensor._result

    def counting(data, parents, op, backward):
        out = result(data, parents, op, backward)
        ops.append(out._op)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counting))
    model.forward(voxelize(scene.cloud, cfg.grid), scene.image_feature_input, plan)
    # the image and BEV streams and the header use no matmul: each fusion
    # level's MLP makes one node per affine layer, its bias included
    assert ops.count("matmul") == 3 * len(cfg.backbone.fusion_points)
    assert "add_rowvec" not in ops


def test_detector_model_modes_and_parameters():
    cfg = miniature_config()
    model = DetectorModel(cfg.grid, cfg.backbone, cfg.fusion,
                          image_in_channels=2, image_feat_channels=4,
                          bev_fpn_channels=6, header_variant="bev",
                          mode="bev_only", rng=_rng())
    names = model.parameters()
    assert not any(n.startswith(("image", "fusion")) for n in names)
    fused = DetectorModel(cfg.grid, cfg.backbone, cfg.fusion,
                          image_in_channels=2, image_feat_channels=4,
                          bev_fpn_channels=6, header_variant="bev",
                          mode="continuous", rng=_rng())
    fnames = fused.parameters()
    assert any(n.startswith("image") for n in fnames)
    assert any(n.startswith("fusion") for n in fnames)
    with pytest.raises(ValueError):
        DetectorModel(cfg.grid, cfg.backbone, cfg.fusion, 2, 4, 6, "bev",
                      mode="telepathy", rng=_rng())


def test_forward_shapes_and_output_grid():
    cfg = miniature_config()
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    from bevfuse.geometry import voxelize
    bev = voxelize(scene.cloud, cfg.grid)
    plans = model.make_plans(scene.cloud, scene.cam)
    out = model.forward(bev, scene.image_feature_input, plans)
    # two groups -> combined output at the finest (stride 1) scale
    assert out.raw.shape == (2 * 6, model.output_grid.ny, model.output_grid.nx)
    assert model.output_grid.nx == cfg.grid.nx


def test_bev_only_ignores_missing_image():
    cfg = miniature_config()
    cfg.mode = "bev_only"
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    from bevfuse.geometry import voxelize
    bev = voxelize(scene.cloud, cfg.grid)
    out = model.forward(bev, None, None)
    assert out.raw.shape[0] == 12


def test_fusion_mode_requires_image_and_plans():
    cfg = miniature_config()
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    from bevfuse.geometry import voxelize
    bev = voxelize(scene.cloud, cfg.grid)
    with pytest.raises(ValueError):
        model.forward(bev, None, None)


def test_load_parameters_strict():
    cfg = miniature_config()
    model = build_model(cfg)
    values = {k: v.data.copy() for k, v in model.parameters().items()}
    model.load_parameters(values)          # exact match is fine
    missing = dict(values)
    missing.pop(next(iter(missing)))
    with pytest.raises(ValueError):
        model.load_parameters(missing)
    extra = dict(values)
    extra["bogus"] = np.zeros(3)
    with pytest.raises(ValueError):
        model.load_parameters(extra)


def test_default_model_output_stride():
    cfg = ExperimentConfig()
    model = build_model(cfg)
    # five groups with strides 1,2,2,2,2; last three combine at stride 4
    assert model.output_grid.nx == cfg.grid.nx // 4
    assert model.output_grid.ny == cfg.grid.ny // 4
    assert [model.fusion_grids[p].nx for p in (0, 1, 2, 3)] == [32, 16, 8, 4]


def test_discrete_mode_plans():
    cfg = miniature_config()
    cfg.mode = "discrete"
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    plan = model.make_plans(scene.cloud, scene.cam)
    assert sorted(plan.levels) == sorted(cfg.backbone.fusion_points)
    assert plan.pair_offset.shape == (plan.pair_pixel.size, 0)


@pytest.mark.parametrize("mode,builds", [("bev_only", 0), ("discrete", 0),
                                         ("continuous_nogeo", 1), ("continuous", 1)])
def test_make_plans_builds_index_only_for_knn_modes(monkeypatch, mode, builds):
    cfg = miniature_config()
    cfg.mode = mode
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    calls, queries = [], []
    build, query = backbone.build_bev_index, BevKdTree.query
    monkeypatch.setattr(backbone, "build_bev_index",
                        lambda cloud: calls.append(1) or build(cloud))
    monkeypatch.setattr(BevKdTree, "query",
                        lambda self, *a: queries.append(1) or query(self, *a))
    model.make_plans(scene.cloud, scene.cam)
    assert len(calls) == builds
    assert len(queries) == builds       # one query answers every fusion level


def _one_level_plan(mode, cloud, cam, grid, k, max_dist):
    """The plan of one level alone, from its own projection and query."""
    if mode == "discrete":
        return plan_discrete_fusion(cloud, cam, {0: grid})
    centers = level_centers({0: grid})
    nb = build_bev_index(cloud).query(centers, k, max_dist)
    return plan_fusion(cloud, cam, {0: grid}, centers, nb, mode == "continuous")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k,max_dist", [(1, 1.5), (1, np.inf), (3, 1.5), (3, np.inf)])
def test_make_plans_equals_per_level_plans(mode, k, max_dist):
    cfg = ExperimentConfig(mode=mode, fusion=FusionSection(k, max_dist))
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    augmented = augment(scene, AugmentationConfig(), seed=[5, 0])
    empty = PointCloud(np.zeros((0, 3)))
    for cloud, cam in ((scene.cloud, scene.cam), (augmented.cloud, augmented.cam),
                       (empty, scene.cam)):
        plan = model.make_plans(cloud, cam)
        if mode == "bev_only":
            assert plan is None
            continue
        assert list(plan.levels) == list(cfg.backbone.fusion_points)
        # pairs are grouped level by level, and every table row is used once
        # or more: the table holds only points that some pair uses
        assert plan.levels[0].start == 0
        assert all(a.stop == b.start for a, b in zip(plan.levels.values(),
                                                     list(plan.levels.values())[1:]))
        assert plan.levels[cfg.backbone.fusion_points[-1]].stop == plan.pair_pixel.size
        assert np.array_equal(np.unique(plan.pair_point), np.arange(len(plan.point_uv)))
        assert np.array_equal(plan.point_scene, np.zeros(len(plan.point_uv), np.intp))
        for p, level in plan.levels.items():
            grid = cfg.grid.downsample(2 ** p)
            ref = _one_level_plan(mode, cloud, cam, grid, k, max_dist)
            assert (level.ny, level.nx) == (ref.levels[0].ny, ref.levels[0].nx) \
                == (grid.ny, grid.nx)
            width = 3 if mode == "continuous" else 0
            span = slice(level.start, level.stop)
            assert plan.pair_offset[span].shape == (level.stop - level.start, width)
            for a, b in ((plan.pair_pixel[span], ref.pair_pixel),
                         (plan.point_uv[plan.pair_point[span]], ref.point_uv[ref.pair_point]),
                         (plan.pair_offset[span], ref.pair_offset)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
