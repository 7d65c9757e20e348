import numpy as np
import pytest

from bevfuse import backbone
from bevfuse.backbone import (MODES, BackboneConfig, Conv2dLayer, DetectorModel,
                              FpnCombiner, GroupSpec, ImageStream,
                              ResidualBlock, ResidualGroup)
from bevfuse.config import ExperimentConfig, FusionSection
from bevfuse.data import AugmentationConfig, augment, generate_scene
from bevfuse.fusion import plan_fusion
from bevfuse.geometry import BevGrid, BevKdTree, PointCloud, build_bev_index
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
    plans = model.make_plans(scene.cloud, scene.cam)
    assert sorted(plans) == sorted(cfg.backbone.fusion_points)
    for p in plans.values():
        assert p.pair_offset.shape == (p.pair_pixel.size, 0)


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


@pytest.mark.parametrize("mode", ["continuous", "continuous_nogeo"])
@pytest.mark.parametrize("k,max_dist", [(1, 1.5), (1, np.inf), (3, 1.5), (3, np.inf)])
def test_make_plans_equals_per_level_plans(mode, k, max_dist):
    cfg = ExperimentConfig(mode=mode, fusion=FusionSection(k, max_dist))
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    augmented = augment(scene, AugmentationConfig(), seed=[5, 0])
    empty = PointCloud(np.zeros((0, 3)))
    for cloud, cam in ((scene.cloud, scene.cam), (augmented.cloud, augmented.cam),
                       (empty, scene.cam)):
        plans = model.make_plans(cloud, cam)
        assert sorted(plans) == sorted(cfg.backbone.fusion_points)
        for p, plan in plans.items():
            grid = cfg.grid.downsample(2 ** p)
            nb = build_bev_index(cloud).query(grid.pixel_centers().reshape(-1, 2),
                                              k, max_dist)
            ref = plan_fusion(cloud, cam, grid, nb, mode == "continuous")
            assert (plan.ny, plan.nx) == (ref.ny, ref.nx) == (grid.ny, grid.nx)
            width = 3 if mode == "continuous" else 0
            assert plan.pair_offset.shape == (plan.pair_pixel.size, width)
            for a, b in ((plan.pair_pixel, ref.pair_pixel), (plan.pair_uv, ref.pair_uv),
                         (plan.pair_offset, ref.pair_offset)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
