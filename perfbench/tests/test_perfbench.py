"""Tests of the benchmark itself, at a tiny size (two steps or frames per call).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from bevfuse.detect import DetectionBox  # noqa: E402
from spans import PER_LAYER, Spans, Tracer  # noqa: E402
from reference import REF_S  # noqa: E402
from workloads import END_TO_END, WORKLOADS, Clock, check_frame, run_workload  # noqa: E402

NAMED = {"overfit_train": ("step_ms_p50", "step_ms_p90", "train_scenes_per_s"),
         "augment_train": ("step_ms_p50", "step_ms_p90", "train_scenes_per_s"),
         "eval_sweep": ("eval_frames_per_s",)}
REPEATED_COUNTS = ("tensor.tape_nodes", "tensor.conv2d.calls", "fusion.pairs",
                   "geometry.kdtree_queries", "detect.iou_calls")


def tiny(name: str, work: str, seed: int = 3) -> dict:
    return run_workload(ROOT, name, seed, seconds=0, trace=True, work=work,
                        per_call=2, min_samples=1, min_calls=2)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {name: tiny(name, str(tmp_path_factory.mktemp(name))) for name in WORKLOADS}


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == \
        list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_unit(traced, name):
    res = traced[name]
    assert res["failed"] == 0 and not res["problems"], res["problems"]
    assert res["missing_wrappers"] == []
    assert {k: m["unit"] for k, m in res["end_to_end"].items()} == END_TO_END
    assert {k: m["unit"] for k, m in res["per_layer"].items()} == \
        {k: unit for k, (unit, _, _) in PER_LAYER.items()}
    for m in (*res["end_to_end"].values(), *res["per_layer"].values()):
        assert np.isfinite(m["value"])
    assert res["end_to_end"]["iter_ms_p50"]["value"] > 0
    named = res["workload_metrics"]
    for key in (*NAMED[name], "frame_ms_p50", "final_loss", "ap", "failed_ratio"):
        assert named[key]["unit"]
    assert named["failed_ratio"]["value"] == 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_nonnegative_and_within_parent(traced, name):
    spans = traced[name]["tracer"].spans
    a = spans.arrays()
    dur, own = spans.self_ns()
    assert len(spans) > 0
    assert (own >= 0).all()
    child = np.flatnonzero(a["parent"] >= 0)
    parent = a["parent"][child]
    assert (own[child] <= dur[parent]).all()
    assert (a["start_ns"][child] >= a["start_ns"][parent]).all()
    assert (a["end_ns"][child] <= a["end_ns"][parent]).all()


def test_self_time_subtracts_children():
    s = Spans()
    outer = s.open(s.intern("outer"))
    for _ in range(3):
        s.close(s.open(s.intern("inner")))
    s.close(outer)
    dur, own = s.self_ns()
    assert own[0] == dur[0] - dur[1:].sum()
    assert (own[1:] == dur[1:]).all()


@pytest.mark.parametrize("name", ["augment_train", "eval_sweep"])
def test_counts_and_digest_repeat_for_one_seed(traced, tmp_path, name):
    again = tiny(name, str(tmp_path))
    for key in REPEATED_COUNTS:
        assert again["per_layer"][key]["value"] == traced[name]["per_layer"][key]["value"]
    assert again["detail"]["digest"] == traced[name]["detail"]["digest"]


def test_scaled_time_divides_each_piece_by_its_reference():
    clock = Clock(None)
    clock.sample_t, clock.sample_s = [0.0, 1.0, 3.0], [REF_S, 2 * REF_S, 2 * REF_S]
    assert clock.scaled(0.0, 1.0) == pytest.approx(1 / 1.5)
    assert clock.scaled(0.5, 2.0) == pytest.approx(0.5 / 1.5 + 1.0 / 2)
    assert clock.scaled(1.0, 3.0) == pytest.approx(1.0)


def test_samples_leave_kernel_time_out_of_timestamps():
    clock = Clock(None)
    a = clock.sample()
    b = clock.sample()
    assert clock.sample_s[1] > 0
    assert 0 <= b - a < clock.paused / 2


def test_coverage_guard_names_unfired_wrappers():
    missing = Tracer().missing("eval_sweep")
    assert "bevfuse.pipeline.nms" in missing
    assert "bevfuse.detect.rotated_iou_bev" in missing
    assert "bevfuse.evaluation.rotated_iou_bev" in missing
    assert "bevfuse.pipeline.augment" not in missing


def test_check_frame_flags_each_violation():
    def box(x, score):
        return DetectionBox(x, 0.0, 0.8, 4.0, 2.0, 1.6, 0.0, score=score)
    assert check_frame([box(0.0, 0.9), box(10.0, 0.8)], 0.3, 50, 0.1) == []
    assert check_frame([box(0.0, 0.8), box(10.0, 0.9)], 0.3, 50, 0.1)
    assert check_frame([box(0.0, 0.2)], 0.3, 50, 0.1)
    assert check_frame([box(0.0, 0.9), box(10.0, 0.8)], 0.3, 1, 0.1)
    assert check_frame([box(0.0, 0.9), box(1.0, 0.8)], 0.3, 50, 0.1)


def test_unsorted_nms_output_counts_as_failed(tmp_path, monkeypatch):
    import bevfuse.pipeline as pipeline
    nms = pipeline.nms
    monkeypatch.setattr(pipeline, "nms", lambda boxes, **kw: nms(boxes, **kw)[::-1])
    res = run_workload(ROOT, "eval_sweep", 3, 0, False, str(tmp_path),
                       per_call=2, min_samples=1, min_calls=1)
    assert res["failed"] == 2 and res["workload_metrics"]["failed_ratio"]["value"] == 1.0


def test_numeric_error_counts_as_failed(tmp_path, monkeypatch):
    from bevfuse.tensor import Adam
    step = Adam.step

    def poisoned(opt):
        step(opt)
        opt.params[0].data[...] = np.nan
    monkeypatch.setattr(Adam, "step", poisoned)
    res = run_workload(ROOT, "overfit_train", 3, 0, False, str(tmp_path),
                       per_call=2, min_samples=1, min_calls=1)
    assert res["failed"] == 1 and res["attempted"] == 1
    assert "NumericError" in res["problems"][0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval_sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
