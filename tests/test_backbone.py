import hashlib
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from bevfuse import backbone
from bevfuse.backbone import (MODES, BackboneConfig, Conv2dLayer, DetectorModel,
                              FpnCombiner, GroupSpec, ImageStream,
                              ResidualBlock, ResidualGroup, check_images)
from bevfuse.config import ExperimentConfig, FusionSection, load_config
from bevfuse.data import AugmentationConfig, augment, generate_scene
from bevfuse.fusion import level_centers, plan_discrete_fusion, plan_fusion
from bevfuse.geometry import BevGrid, BevKdTree, PointCloud, build_bev_index, voxelize
from bevfuse.pipeline import build_model, build_scenes, miniature_config
from bevfuse.tensor import InputError, Tensor, save_checkpoint


def _rng():
    return np.random.default_rng(0)


def test_backbone_config_validates_strides():
    with pytest.raises(ValueError):
        BackboneConfig(fusion_points=(9,))
    with pytest.raises(ValueError, match="distinct"):
        BackboneConfig(fusion_points=(1, 1))


def test_residual_block_shapes_and_skip():
    blk = ResidualBlock(4, 8, 2, _rng(), "b")
    out = blk.forward(Tensor(np.random.default_rng(1).standard_normal((1, 4, 8, 8))))
    assert out.shape == (1, 8, 4, 4)
    assert blk.skip is not None
    same = ResidualBlock(4, 4, 1, _rng(), "s")
    assert same.skip is None


def test_merge_parameters_skips_none_and_keeps_order():
    blk = ResidualBlock(4, 8, 2, _rng(), "b")
    names = list(backbone.merge_parameters(blk.conv2, None, blk.skip, blk.conv1))
    assert names == ["b.conv2.weight", "b.conv2.bias", "b.skip.weight", "b.skip.bias",
                     "b.conv1.weight", "b.conv1.bias"]
    assert list(blk.parameters()) == ["b.conv1.weight", "b.conv1.bias", "b.conv2.weight",
                                      "b.conv2.bias", "b.skip.weight", "b.skip.bias"]


def test_residual_group_block_count():
    g = ResidualGroup(4, GroupSpec(6, 8), 2, _rng(), "g")
    assert len(g.blocks) == 3


def test_fpn_combiner_output_at_finest_scale():
    rng = _rng()
    comb = FpnCombiner([4, 8, 16], 6, rng, "fpn")
    maps = [Tensor(rng.standard_normal((1, 4, 8, 8))),
            Tensor(rng.standard_normal((1, 8, 4, 4))),
            Tensor(rng.standard_normal((1, 16, 2, 2)))]
    out = comb.forward(maps)
    assert out.shape == (1, 6, 8, 8)


def test_fpn_combiner_rejects_bad_pyramid():
    rng = _rng()
    comb = FpnCombiner([4, 8], 6, rng, "fpn")
    maps = [Tensor(np.zeros((1, 4, 8, 8))), Tensor(np.zeros((1, 8, 3, 3)))]
    with pytest.raises(ValueError):
        comb.forward(maps)
    with pytest.raises(ValueError):
        comb.forward(maps[:1])


def test_image_stream_divisibility_check():
    cfg = BackboneConfig(image_groups=[GroupSpec(2, 4), GroupSpec(2, 8)])
    stream = ImageStream(3, cfg, 6, _rng())
    with pytest.raises(ValueError, match="halve"):
        stream.forward(Tensor(np.zeros((1, 3, 7, 8))))


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
        ops.append(op)
        return result(data, parents, op, backward)

    monkeypatch.setattr(Tensor, "_result", staticmethod(counting))
    model.forward(voxelize(scene.cloud, cfg.grid), scene.image_feature_input, plan)
    # the image and BEV streams and the header use no matmul: each fusion
    # level's MLP makes one node per affine layer, its bias included
    assert ops.count("matmul") == 3 * len(cfg.backbone.fusion_points)
    assert "add_rowvec" not in ops


def test_detector_model_modes_and_parameters():
    cfg = miniature_config()
    model = DetectorModel(replace(cfg, mode="bev_only"), _rng())
    names = model.parameters()
    assert not any(n.startswith(("image", "fusion")) for n in names)
    fused = DetectorModel(replace(cfg, mode="continuous"), _rng())
    fnames = fused.parameters()
    assert any(n.startswith("image") for n in fnames)
    assert any(n.startswith("fusion") for n in fnames)
    with pytest.raises(ValueError):
        DetectorModel(replace(cfg, mode="telepathy"), _rng())


# sha256 of the checkpoint of a freshly built model: only PCG64 draws and
# np.sqrt feed these bytes, so they hold on every machine. The two middle
# modes share an MLP input width, hence a digest.
_FRESH_DIGESTS = {
    ("miniature", "continuous"):
        "a7e74676106b0ffc77671af5c97daebf6eac01edaeb0a731e41d1d30f88b8987",
    ("miniature", "continuous_nogeo"):
        "6fb50ebe80eee2bcf5bc465c22ea7de89db1acdc299fb4e25a903556b1e412a9",
    ("miniature", "discrete"):
        "6fb50ebe80eee2bcf5bc465c22ea7de89db1acdc299fb4e25a903556b1e412a9",
    ("miniature", "bev_only"):
        "e1b5a1f5548f796da9f2c0919e258035b695091420c7ab86d318b7c0a490687b",
    ("overfit", "continuous"):
        "9ae4fe6523376812b6b62912c6c967c83898c3059da98bf0e8a8b1cf0c981726",
    ("overfit", "continuous_nogeo"):
        "4762642f3bd4ecef1b97b1a22194410945a9a7fec075a9be757b21fa6f4896d0",
    ("overfit", "discrete"):
        "4762642f3bd4ecef1b97b1a22194410945a9a7fec075a9be757b21fa6f4896d0",
    ("overfit", "bev_only"):
        "554f73b23837dda2069354fe75a3ba13520a6efd6c48a8314db1b0b0e861bcbe",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("base", ["miniature", "overfit"])
def test_a_freshly_built_model_keeps_its_bytes(tmp_path, base, mode):
    """Every parameter's name, shape, order and drawn value, pinned."""
    cfg = miniature_config() if base == "miniature" else load_config(
        pathlib.Path(__file__).resolve().parent.parent / "configs" / "overfit.yaml",
        environ={})
    ckpt = tmp_path / "fresh.bin"
    save_checkpoint(build_model(replace(cfg, mode=mode)).parameters(), ckpt)
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == _FRESH_DIGESTS[base, mode]


def _raises(error, fn, *args) -> bool:
    try:
        fn(*args)
    except error:
        return True
    return False


@pytest.mark.parametrize("n_groups", [1, 2, 3])
def test_check_images_accepts_what_the_built_stream_accepts(n_groups):
    """The load check and the image stream state one rule: the check refuses
    an image exactly when the stream built from the same config fails on it."""
    cfg = miniature_config()
    groups = [GroupSpec(2, 4), GroupSpec(2, 6), GroupSpec(2, 8)][:n_groups]
    cfg = replace(cfg, backbone=replace(cfg.backbone, image_groups=groups))
    stream, scene = build_model(cfg).image_stream, build_scenes(cfg)[0]
    refusals = 0
    for shape in np.ndindex(3, 9, 9):
        image = np.zeros(np.add(shape, 1))
        refused = _raises(InputError, check_images, cfg,
                          [replace(scene, image_feature_input=image)])
        assert refused == _raises(ValueError, stream.forward, Tensor(image[None])), image.shape
        refusals += refused
    assert 0 < refusals < 3 * 9 * 9


def test_forward_shapes_and_output_grid():
    cfg = miniature_config()
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    from bevfuse.geometry import voxelize
    bev = voxelize(scene.cloud, cfg.grid)
    plans = model.make_plans(scene.cloud, scene.cam)
    out = model.forward(bev, scene.image_feature_input, plans)
    # two groups -> combined output at the finest (stride 1) scale, as a
    # batch of one
    assert out.raw.shape == (1, 2 * 6, model.output_grid.ny, model.output_grid.nx)
    assert model.output_grid.nx == cfg.grid.nx


def test_bev_only_ignores_missing_image():
    cfg = miniature_config()
    cfg.mode = "bev_only"
    model = build_model(cfg)
    scene = build_scenes(cfg)[0]
    from bevfuse.geometry import voxelize
    bev = voxelize(scene.cloud, cfg.grid)
    out = model.forward(bev, None, None)
    assert out.raw.shape[:2] == (1, 12)


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


@pytest.mark.parametrize("mode", ["continuous", "continuous_nogeo"])
def test_a_k_past_the_clouds_size_plans_as_k_equal_to_it(monkeypatch, mode):
    scene = build_scenes(ExperimentConfig())[0]
    n = len(scene.cloud)
    asked, query = [], BevKdTree.query

    def spy(self, q, k, *a):
        """Record the k asked for and the columns answered."""
        nb = query(self, q, k, *a)
        asked.append((k, nb.shape[1]))
        return nb
    monkeypatch.setattr(BevKdTree, "query", spy)
    plans = [build_model(ExperimentConfig(mode=mode, fusion=FusionSection(k, 10.0)))
             .make_plans(scene.cloud, scene.cam) for k in (5000, n)]
    assert asked == [(5000, n), (n, n)]     # no column that could only hold -1
    big, exact = plans
    assert big.levels == exact.levels
    for name in ("point_uv", "point_scene", "pair_pixel", "pair_point", "pair_offset"):
        a, b = getattr(big, name), getattr(exact, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    model = build_model(ExperimentConfig(mode=mode, fusion=FusionSection(5000, 10.0)))
    plan = model.make_plans(PointCloud(np.zeros((0, 3))), scene.cam)
    assert asked[-1] == (5000, 1) and plan.pair_pixel.size == 0     # one column of -1


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
