import math
import pathlib

import numpy as np
import pytest
import yaml

from bevfuse import config
from bevfuse.config import (CONFIG_VERSION, ConfigError, ExperimentConfig,
                            apply_env_overrides, config_from_dict,
                            config_to_dict, load_config, save_config)

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


def test_grid_and_image_must_divide_by_their_stream_strides():
    with pytest.raises(ConfigError, match="BEV stride 16"):
        config_from_dict({"grid": {"x_range": [0, 32], "y_range": [-16, 16],
                                   "z_range": [0, 3], "nx": 30, "ny": 32, "nz": 4}})
    odd_image = {"data": {"synthetic": {"image_shape": [4, 25, 48]}}}
    with pytest.raises(ConfigError, match="image stride 8"):
        config_from_dict(odd_image)
    assert config_from_dict({**odd_image, "mode": "bev_only"}).mode == "bev_only"


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
    env = {"BEVFUSE_OPTIMIZER__LR": "0.5", "BEVFUSE_SEED": "9",
           "BEVFUSE_EVAL__IOU_KIND": "3d", "OTHER": "x"}
    d = apply_env_overrides({}, environ=env)
    assert d == {"optimizer": {"lr": 0.5}, "seed": 9, "eval": {"iou_kind": "3d"}}
    cfg = config_from_dict(d)
    assert cfg.optimizer.lr == 0.5 and cfg.seed == 9


def test_load_config_applies_env(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("seed: 1\n")
    cfg = load_config(path, environ={"BEVFUSE_SEED": "5"})
    assert cfg.seed == 5


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
