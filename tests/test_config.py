import copy
import functools
import math
import operator
import pathlib

import numpy as np
import pytest
import yaml

from bevfuse import config
from bevfuse.cli import main
from bevfuse.config import (CONFIG_VERSION, ConfigError, ExperimentConfig,
                            apply_env_overrides, config_from_dict,
                            config_to_dict, load_config, save_config)
from bevfuse.data import AugmentationConfig
from bevfuse.pipeline import miniature_config

CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.yaml"))


def test_default_config_valid():
    cfg = ExperimentConfig()
    assert cfg.config_version == CONFIG_VERSION
    assert cfg.mode == "continuous"
    assert cfg.assignment().positive_radius > 0


def test_round_trip_through_yaml(tmp_path):
    cfg = ExperimentConfig()
    cfg.optimizer.steps = 42
    cfg.data.synthetic.occlusion_fraction = 0.25
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"frobnicate": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"optimizer": {"learning_rate": 0.1}})


def test_scalar_values_are_type_checked_not_converted():
    cfg = config_from_dict({"optimizer": {"lr": 1, "steps": 5},
                            "loss": {"wrap_orientation": True}})
    assert cfg.optimizer.lr == 1 and type(cfg.optimizer.lr) is int
    for bad in ({"optimizer": {"steps": "abc"}}, {"optimizer": {"steps": True}},
                {"optimizer": {"steps": 2.0}}, {"optimizer": {"steps": None}},
                {"optimizer": {"lr": False}}, {"optimizer": {"lr": "0.1"}},
                {"loss": {"wrap_orientation": 1}}, {"variant": 3},
                {"anchor": {"size": [4.0, "2", 1.6]}}):
        with pytest.raises(ConfigError):
            config_from_dict(bad)


def test_grid_must_divide_by_the_bev_stride():
    with pytest.raises(ConfigError, match="BEV stride 16"):
        config_from_dict({"grid": {"x_range": [0, 32], "y_range": [-16, 16],
                                   "z_range": [0, 3], "nx": 30, "ny": 32, "nz": 4}})


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "psychic"})


def test_bad_version_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"config_version": 99})


def test_nested_overrides_from_dict():
    cfg = config_from_dict({"optimizer": {"lr": 0.01, "steps": 7},
                            "fusion": {"k": 3, "max_dist": 2.0}})
    assert cfg.optimizer.lr == 0.01 and cfg.optimizer.steps == 7
    assert cfg.fusion.k == 3 and cfg.fusion.max_dist == 2.0


def test_group_lists_round_trip():
    cfg = config_from_dict({"backbone": {
        "bev_groups": [[2, 4], [2, 8]],
        "image_groups": [{"layers": 2, "channels": 4}],
        "fusion_points": [0]}})
    assert cfg.backbone.bev_groups[1].channels == 8
    assert cfg.backbone.image_groups[0].layers == 2
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


@pytest.mark.parametrize("group,key", [({"layers": 2, "channels": 4, "stride": 1}, "stride"),
                                       ([2, 4, 1], "layers, channels")])
def test_group_stride_is_not_a_key(group, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({"backbone": {"image_groups": [group]}})


def test_env_overrides():
    env = {"BEVFUSE_OPTIMIZER__LR": "0.5", "BEVFUSE_SEED": "9", "BEVFUSE_VARIANT": "3d",
           "BEVFUSE_EVAL__IOU_KIND": "3d", "OTHER": "x"}
    d = apply_env_overrides({}, environ=env)
    assert d == {"optimizer": {"lr": 0.5}, "seed": 9, "variant": "3d",
                 "eval": {"iou_kind": "3d"}}
    cfg = config_from_dict(d)
    assert cfg.optimizer.lr == 0.5 and cfg.seed == 9


def test_load_config_applies_env(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("seed: 1\n")
    cfg = load_config(path, environ={"BEVFUSE_SEED": "5"})
    assert cfg.seed == 5


def test_load_config_of_no_path_is_the_empty_document_with_env():
    env = {"BEVFUSE_SEED": "4", "BEVFUSE_FUSION__K": "3"}
    assert load_config(None, environ=env) == config_from_dict(apply_env_overrides({}, env))
    assert load_config(None, environ=env).fusion.k == 3


@pytest.mark.parametrize("doc", ["[1]\n", "5\n"], ids=["list", "scalar"])
def test_config_document_must_be_a_mapping(tmp_path, doc):
    path = tmp_path / "c.yaml"
    path.write_text(doc)
    for environ in ({}, {"BEVFUSE_SEED": "3"}):
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_config(path, environ=environ)


def test_grid_from_dict():
    # 16 x 16: the default BEV stream halves the raster four times
    cfg = config_from_dict({"grid": {"x_range": [0.0, 32.0], "y_range": [-16.0, 16.0],
                                     "z_range": [0.0, 2.0], "nx": 16, "ny": 16,
                                     "nz": 2}})
    assert cfg.grid.nx == 16 and cfg.grid.cell[0] == 2.0


# values where emitters and parsers could part ways
EDGE_VALUES = {
    "long": "a string with spaces that runs past the eighty-column line width "
            "of the emitter, so it has to fold",
    "unicode": "Grüße, 東京 — ✓", "multi_line": "first line\nsecond line\n",
    "floats": [math.inf, -math.inf, math.nan, -0.0, 1e300, 1e-300, 0.1, 2.5e-8],
    "null": None, "nested": [[1, [2.5, None]], {"empty": [], "flag": True}],
    "numeric_string": "0.5", "empty": "",
}


@pytest.mark.parametrize("source", [*CONFIGS, "edge_values"],
                         ids=[*(p.name for p in CONFIGS), "edge_values"])
def test_config_io_matches_pure_python_yaml(tmp_path, source):
    assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert config._DUMPER is getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    d = EDGE_VALUES if source == "edge_values" else \
        config_to_dict(load_config(source, environ={}))
    save_config(d, tmp_path / "c.yaml")        # config_to_dict passes a dict through
    written = (tmp_path / "c.yaml").read_bytes()
    assert written == yaml.dump(d, Dumper=yaml.SafeDumper, sort_keys=True).encode()
    raw = written if source == "edge_values" else source.read_bytes()
    # repr tells nan and -0.0 apart, which == does not
    assert repr(config._parse_yaml(raw, str(source))) == \
        repr(yaml.load(raw, Loader=yaml.SafeLoader))


# the loader fuzz sets every leaf of the miniature config in turn to each of
# these, and every list whole to each of _FUZZ_WHOLE
_FUZZ_VALUES = (0, -1, 0.5, math.nan, math.inf, -math.inf, 1e308, "x", None, True, [])
_FUZZ_WHOLE = (0.5, "x", [])

# the mutations that train and exit 0, each a value inside its field's domain;
# a mutation that newly exits 0 is a silent accept to review
_FUZZ_ACCEPTED = {
    "seed": (0,), "grid.x_range[0]": (0, -1, 0.5), "grid.x_range[1]": (0.5, 1e308),
    "grid.y_range[0]": (0, -1, 0.5), "grid.y_range[1]": (0, -1, 0.5, 1e308),
    "grid.z_range[0]": (0, -1, 0.5), "grid.z_range[1]": (0.5, 1e308),
    "backbone.fusion_points[0]": (0,),
    "fusion.max_dist": (0.5, math.inf, 1e308), "anchor.size[0]": (0.5, 1e308),
    "anchor.size[1]": (0.5, 1e308), "anchor.size[2]": (0.5, 1e308),
    "anchor.z": (0, -1, 0.5, 1e308), "assign": (None,), "loss.alpha": (0, 0.5),
    "loss.wrap_orientation": (True,), "optimizer.lr": (0.5,),
    "optimizer.betas[0]": (0, 0.5), "optimizer.betas[1]": (0, 0.5),
    "optimizer.eps": (0.5, 1e308), "optimizer.steps": (0,),
    "optimizer.decay_milestones[0]": (0, 0.5), "optimizer.decay_milestones[1]": (0, 0.5),
    "optimizer.decay_factor": (0.5,), "optimizer.checkpoint_every": (0,),
    "data.synthetic.x_range[0]": (0.5,), "data.synthetic.x_range[1]": (1e308,),
    "data.synthetic.y_range[0]": (0, -1, 0.5), "data.synthetic.y_range[1]": (0, -1, 0.5),
    "data.synthetic.object_count[0]": (0,), "data.synthetic.base_size[0]": (0.5,),
    "data.synthetic.base_size[1]": (0.5,), "data.synthetic.base_size[2]": (0.5,),
    "data.synthetic.size_jitter": (0, 0.5), "data.synthetic.ground_points": (0,),
    "data.synthetic.surface_points_ref": (0,), "data.synthetic.reference_distance": (0.5,),
    "data.synthetic.noise_sigma": (0, 0.5, 1e308),
    "data.synthetic.occlusion_fraction": (0, 0.5), "data.synthetic.focal[0]": (0.5,),
    "data.synthetic.focal[1]": (0.5,), "data.synthetic.seed": (0,),
    "data.manifest": ("x", None), "data.kitti_frames": (None, []),
    "data.augment": (None, []), "eval.iou_threshold": (0.5,), "eval.range_bins": (None,),
    "eval.ignore_classes": ([],), "eval.score_threshold": (0, 0.5), "eval.nms_iou": (0.5,),
    # the leaves of the optional sections, set in the second base
    "assign.positive_radius": (0.5,), "assign.negative_radius": (1e308,),
    "assign.neg_sample_fraction": (0.5,), "assign.topk_neg_ratio": (0, 0.5),
    "assign.topk_neg_floor": (0,), "data.augment.scale_xy[0]": (0.5,),
    "data.augment.scale_z[0]": (0.5,), "data.augment.translate_xy": (0, 0.5),
    "data.augment.translate_z": (0, 0.5), "data.augment.rotate_z_deg": (0, 0.5),
    "data.augment.image_scale[0]": (0.5,), "data.augment.image_translate_px": (0, 0.5),
    "eval.range_bins[0][0]": (0, -1, 0.5, -math.inf),
    "eval.range_bins[0][1]": (0.5, math.inf, 1e308),
}
# the mutations that exit 3; every other mutation exits 2
_FUZZ_NUMERIC = {"loss.alpha": (1e308,), "optimizer.lr": (1e308,)}


def _flat(cases):
    return {f"{name} = {v!r}" for name, values in cases.items() for v in values}


def _fuzz_cases(node, keys=()):
    """(key path, value) for every mutation of the config dict ``node`` at
    ``keys``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _fuzz_cases(child, keys + (key,))
        return
    values = _FUZZ_VALUES
    if isinstance(node, list):
        values = _FUZZ_WHOLE
        for i, child in enumerate(node):
            yield from _fuzz_cases(child, keys + (i,))
    for value in values:
        yield keys, value


# the sections the miniature config leaves null, so the fuzz sets them only
# whole there; a second base sets them, and the fuzz mutates their leaves
_OPTIONAL = (("assign",), ("data", "augment"), ("eval", "range_bins"))


def _fuzz_mutations():
    """(base config dict, key path, value) for every mutation of the fuzz."""
    cfg = miniature_config()
    cfg.optimizer.steps = 1
    base = config_to_dict(cfg)
    for keys, value in _fuzz_cases(base):
        yield base, keys, value
    cfg.assign, cfg.data.augment = cfg.assignment(), AugmentationConfig()
    cfg.eval.range_bins = [(0.0, 16.0)]
    full = config_to_dict(cfg)
    for keys in _OPTIONAL:
        for leaf, value in _fuzz_cases(functools.reduce(operator.getitem, keys, full), keys):
            yield full, leaf, value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # 1e308 overflows inside numpy
def test_config_fuzz_exits_cleanly(tmp_path):
    path = tmp_path / "c.yaml"
    exits = {0: set(), 2: set(), 3: set()}
    for base, keys, value in _fuzz_mutations():
        d = copy.deepcopy(base)
        node = d
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        save_config(d, path)
        name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]
        try:
            rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        except Exception as e:
            pytest.fail(f"{name} = {value!r} raised {e!r}")
        assert rc in exits, (name, value, rc)
        exits[rc].add(f"{name} = {value!r}")
    assert exits[0] == _flat(_FUZZ_ACCEPTED)
    assert exits[3] == _flat(_FUZZ_NUMERIC)
