import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "collect_bench.py"


@pytest.fixture(scope="module")
def collect_bench():
    spec = importlib.util.spec_from_file_location("collect_bench", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(src_lines, layers):
    per_layer = {name: {"unit": "ms", "value": v} for name, v in layers.items()}
    return {"src_lines": src_lines, "results": {
        "augment_train-trace0": {"per_layer": {}},
        "augment_train-trace1": {"per_layer": per_layer}}}


def test_summary_prints_per_layer_metrics_that_moved(collect_bench):
    doc = {
        "base": _side(300, {"geometry.kdtree_query_ms": 9.0, "geometry.voxelize_ms": 2.0,
                            "fusion.pairs": 0.0, "detect.nms_ms": 0.0, "only.base_ms": 1.0}),
        "change": _side(290, {"geometry.kdtree_query_ms": 6.0, "geometry.voxelize_ms": 2.05,
                              "fusion.pairs": 3.0, "detect.nms_ms": 0.0, "only.change_ms": 1.0}),
        "end_to_end": {"augment_train.iter_ms_p50": {
            "base": [100.0, 98.0], "change": [90.0, 91.0], "median": [99.0, 90.5],
            "base_iqr": 1.0, "change_wins": 2}},
    }
    lines = collect_bench.summary(doc)
    assert len(lines) == 4
    assert lines[0].startswith("augment_train.iter_ms_p50") and "-8.6%" in lines[0]
    # sorted by name; within 5 % (voxelize), unchanged and one-sided metrics are left out
    assert lines[1].split() == ["augment_train.fusion.pairs", "base", "0", "change", "3", "n/a"]
    assert lines[2].split() == ["augment_train.geometry.kdtree_query_ms", "base", "9",
                                "change", "6", "-33.3%"]
    assert lines[3] == "src_lines base 300 change 290 (-10)"
