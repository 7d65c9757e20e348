import importlib.util
import json
import pathlib
import subprocess
from types import SimpleNamespace

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "collect_bench.py"


@pytest.fixture(scope="module")
def collect_bench():
    spec = importlib.util.spec_from_file_location("collect_bench", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(file_lines, layers, digests=None):
    return {"src_lines": sum(file_lines.values()), "src_file_lines": file_lines,
            "per_layer": {"augment_train": layers},
            "results": {key: {"detail": {"digest": d}} for key, d in (digests or {}).items()}}


def test_summary_prints_per_layer_metrics_that_moved(collect_bench):
    base_files = {"src/a.py": 100, "src/b.py": 150, "src/c.py": 50}
    change_files = {"src/a.py": 100, "src/b.py": 160, "src/d.py": 30}
    doc = {
        "base": _side(base_files, {"geometry.kdtree_query_ms": [9.0, 9.5, 8.0],
                                   "geometry.voxelize_ms": [2.0, 2.0, 2.0],
                                   "fusion.pairs": [0.0, 0.0, 0.0],
                                   "detect.nms_ms": [0.0, 0.0, 0.0],
                                   "only.base_ms": [1.0, 1.0, 1.0]}),
        "change": _side(change_files, {"geometry.kdtree_query_ms": [6.0, 6.2, 5.0],
                                       "geometry.voxelize_ms": [2.05, 3.0, 1.98],
                                       "fusion.pairs": [3.0, 3.0, 3.0],
                                       "detect.nms_ms": [0.0, 0.0, 0.0],
                                       "only.change_ms": [1.0, 1.0, 1.0]}),
        "end_to_end": {"augment_train.iter_ms_p50": {
            "base": [100.0, 98.0], "change": [90.0, 91.0], "median": [99.0, 90.5],
            "base_iqr": 1.0, "change_iqr": 0.5, "change_wins": 2}},
    }
    lines = collect_bench.summary(doc)
    assert len(lines) == 7
    assert lines[0].startswith("augment_train.iter_ms_p50") and "-8.6%" in lines[0]
    # sorted by name; voxelize's one +50 % pair leaves its median shift at +2.5 %,
    # and unchanged and one-sided metrics are left out
    assert lines[1].split() == ["augment_train.fusion.pairs", "base", "0", "change", "3", "n/a"]
    # medians 9 and 6; pair shifts -33.3 %, -34.7 % and -37.5 %
    assert lines[2].split() == ["augment_train.geometry.kdtree_query_ms", "base", "9",
                                "change", "6", "-34.7%"]
    assert lines[3] == "src_lines base 300 change 290 (-10)"
    # the files whose count changed, a deleted or added file counting 0 on its other side
    assert lines[4:] == ["src_lines src/b.py base 150 change 160 (+10)",
                         "src_lines src/c.py base 50 change 0 (-50)",
                         "src_lines src/d.py base 0 change 30 (+30)"]


def test_summary_says_whether_each_output_digest_is_equal(collect_bench):
    doc = {"base": _side({"src/a.py": 1}, {}, {"eval_sweep-trace0": "d9cb",
                                               "augment_train-trace1": "8515",
                                               "augment_train-trace0": "dc51"}),
           "change": _side({"src/a.py": 1}, {}, {"eval_sweep-trace0": "d9cb",
                                                 "augment_train-trace1": "8515",
                                                 "augment_train-trace0": "0f00"}),
           "end_to_end": {}}
    assert collect_bench.summary(doc)[:3] == [
        "digest augment_train-trace0 base dc51 change 0f00 DIFFERS",
        "digest augment_train-trace1 equal",
        "digest eval_sweep-trace0 equal"]


def test_seed_defaults_to_1_and_reaches_every_run(collect_bench, monkeypatch, tmp_path):
    assert collect_bench.parse_args(["B.json"]).seed == 1
    args = collect_bench.parse_args(["B.json", "abc123", "--seed", "2"])
    assert (args.out.name, args.base, args.seed) == ("B.json", "abc123", 2)
    with pytest.raises(SystemExit):
        collect_bench.parse_args(["B.json", "--seed", "-1"])
    commands = []

    def fake_run(command, cwd, **kwargs):
        commands.append(command)
        results = cwd / "perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / "eval_sweep-seed2-trace1.json").write_text('{"seed": 2}')
    monkeypatch.setattr(collect_bench.subprocess, "run", fake_run)
    res = collect_bench.run(["bench"], tmp_path, "eval_sweep", 2, 30, 1)
    assert res == {"seed": 2}
    assert commands == [["bench", "--workload", "eval_sweep", "--seed", "2",
                         "--seconds", "30", "--trace", "1"]]


def test_summary_gives_each_end_to_end_line_a_verdict(collect_bench):
    steady = [100.0 + 0.1 * i for i in range(10)]          # base median 100.45, IQR 0.55
    spread = [50.0 + 10.0 * i for i in range(10)]          # base IQR 55 of a median 95
    cases = {
        # 9 of 10 pairs won, medians 0.6 ms apart against a base IQR of 0.055
        "eval_sweep.iter_ms_p50": ([8.5 + 0.01 * i for i in range(10)],
                                   [8.6] + [7.9 + 0.01 * i for i in range(1, 10)], "GAIN"),
        # 8 of 10 pairs won: no gain, however far apart the medians
        "eval_sweep.iter_ms_p90": ([8.5 + 0.01 * i for i in range(10)],
                                   [8.6, 8.6] + [7.9 + 0.01 * i for i in range(2, 10)],
                                   "NEUTRAL"),
        # higher is better: 30 % fewer scenes per second, past the 25 % bound
        "eval_sweep.scenes_per_s": (steady, [70.0 + 0.1 * i for i in range(10)],
                                    "REGRESSION"),
        # the base runs spread past the 10 % bound, and the sides overlap
        "eval_sweep.peak_rss_mb": (spread, spread[::-1], "UNRESOLVED"),
        # as wide a spread, but every change run beats every base run
        "augment_train.peak_rss_mb": (spread, [10.0 + 0.1 * i for i in range(10)], "GAIN"),
        "augment_train.run_s": (steady, steady[1:] + steady[:1], "NEUTRAL"),
    }
    doc = {"base": _side({"src/a.py": 1}, {}), "change": _side({"src/a.py": 1}, {}),
           "end_to_end": {key: collect_bench.compare(base, change, "higher" if "per_s" in key
                                                     else "lower")
                          for key, (base, change, _) in cases.items()}}
    lines = collect_bench.summary(doc)
    assert [line.split()[0] for line in lines[:len(cases)]] == list(cases)
    assert [line.split()[-1] for line in lines[:len(cases)]] == [v for *_, v in cases.values()]
    assert doc["end_to_end"]["eval_sweep.iter_ms_p50"]["change_wins"] == 9
    # each side's IQR, printed beside the other: 55 for the spread, 0.55 for the steady runs
    rss = doc["end_to_end"]["augment_train.peak_rss_mb"]
    assert (rss["base_iqr"], rss["change_iqr"]) == (pytest.approx(55), pytest.approx(0.55))
    assert "base IQR 55  change IQR 0.55  GAIN" in lines[4]


def test_both_sides_run_from_fresh_checkouts(collect_bench, monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    bench = {"command": ["bench"], "run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    (repo / ".gitignore").write_text("results/\n")
    (repo / "src" / "a.py").write_text("x = 1\n")
    for args in (["init", "-q"], ["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t",
                                                "commit", "-q", "-m", "base"]):
        subprocess.run(["git", *args], cwd=repo, check=True)
    (repo / "src" / "a.py").write_text("x = 2\ny = 3\n")       # uncommitted
    (repo / "src" / "b.py").write_text("z = 1\n")              # untracked
    (repo / "results").mkdir()
    (repo / "results" / "old.json").write_text("{}")           # ignored
    seen = {}

    def fake_run(command, checkout, workload, seed, seconds, trace):
        seen[checkout] = ((checkout / "src" / "a.py").read_text(),
                          (checkout / "results").exists())
        return {"failed": 0, "end_to_end": {"run_s": {"value": 1.0}}, "per_layer": {},
                "detail": {"digest": "d"}}
    monkeypatch.setattr(collect_bench, "ROOT", repo)
    monkeypatch.setattr(collect_bench, "run", fake_run)
    assert collect_bench.main([str(tmp_path / "B.json")]) == 0
    assert len(seen) == 2 and repo not in seen
    assert sorted(seen.values()) == [("x = 1\n", False), ("x = 2\ny = 3\n", False)]
    doc = json.loads((tmp_path / "B.json").read_text())
    assert doc["base"]["src_file_lines"] == {"src/a.py": 1}
    assert doc["change"]["src_file_lines"] == {"src/a.py": 2, "src/b.py": 1}
    assert doc["change"]["dirty"]


def test_each_run_records_wall_and_reference_times_faults_and_system_time(
        collect_bench, monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    bench = {"command": ["bench"], "run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    (repo / "src" / "a.py").write_text("x = 1\n")
    for args in (["init", "-q"], ["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t",
                                                "commit", "-q", "-m", "base"]):
        subprocess.run(["git", *args], cwd=repo, check=True)
    usage = {"minflt": 0, "stime": 0.0}

    def fake_run(command, checkout, workload, seed, seconds, trace):
        # a base run faults 1,000 pages in 0.5 s of system time, a change run 200 in 0.125 s
        base = checkout.name == "base"
        usage["minflt"] += 1000 if base else 200
        usage["stime"] += 0.5 if base else 0.125
        return {"failed": 0, "end_to_end": {"run_s": {"value": 1.0}}, "per_layer": {},
                "detail": {"digest": "d", "wall_iter_ms_p50": 40.0 if base else 36.0,
                           "reference_ms_p50": 0.5 if base else 0.55}}

    def fake_getrusage(who):
        assert who == collect_bench.resource.RUSAGE_CHILDREN
        return SimpleNamespace(ru_minflt=usage["minflt"], ru_stime=usage["stime"])
    monkeypatch.setattr(collect_bench, "ROOT", repo)
    monkeypatch.setattr(collect_bench, "run", fake_run)
    monkeypatch.setattr(collect_bench.resource, "getrusage", fake_getrusage)
    assert collect_bench.main([str(tmp_path / "B.json")]) == 0
    detail = json.loads((tmp_path / "B.json").read_text())["run_detail"]
    assert detail["w.minor_faults"]["base"] == [1000] * collect_bench.PAIRS
    assert detail["w.minor_faults"]["change"] == [200] * collect_bench.PAIRS
    assert {key: m["median"] for key, m in detail.items()} == {
        "w.wall_iter_ms_p50": [40.0, 36.0], "w.reference_ms_p50": [0.5, 0.55],
        "w.minor_faults": [1000, 200], "w.system_s": [0.5, 0.125]}
    # both sides' medians print beside the end-to-end line, with the relative change
    # and the pairs in which the change read lower; a side without a value reads n/a
    detail["w.reference_ms_p50"]["median"][0] = None
    detail["w.reference_ms_p50"]["base"] = [None] * collect_bench.PAIRS
    doc = {"base": _side({"src/a.py": 1}, {}), "change": _side({"src/a.py": 1}, {}),
           "end_to_end": {}, "run_detail": detail}
    # (the file's keys are sorted)
    assert [line.split() for line in collect_bench.summary(doc)[:4]] == [
        ["w.minor_faults", "base", "1000", "change", "200", "-80.0%", "lower", "10/10"],
        ["w.reference_ms_p50", "base", "n/a", "change", "0.55", "n/a", "lower", "0/0"],
        ["w.system_s", "base", "0.5", "change", "0.125", "-75.0%", "lower", "10/10"],
        ["w.wall_iter_ms_p50", "base", "40", "change", "36", "-10.0%", "lower", "10/10"]]


def test_summary_counts_the_pairs_in_which_a_run_detail_value_read_lower(collect_bench):
    # faults per run: the change reads lower in 3 of 4 pairs, and equal in one;
    # a pair where one side reports nothing is not counted
    doc = {"base": _side({"src/a.py": 1}, {}), "change": _side({"src/a.py": 1}, {}),
           "end_to_end": {},
           "run_detail": {
               "overfit_train.minor_faults": {
                   "base": [35000, 34000, 36000, 35000], "change": [15000, 34000, 14000, 16000],
                   "median": [35000, 15500]},
               "overfit_train.reference_ms_p50": {
                   "base": [0.5, None, 0.4], "change": [0.6, 0.3, 0.3],
                   "median": [0.45, 0.3]},
               "eval_sweep.system_s": {"base": [0.0, 0.0], "change": [0.01, 0.0],
                                       "median": [0.0, 0.005]}}}
    assert [line.split()[-3:] for line in collect_bench.summary(doc)[:3]] == [
        ["-55.7%", "lower", "3/4"], ["-33.3%", "lower", "1/2"], ["n/a", "lower", "0/2"]]
