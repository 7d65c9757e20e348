#!/usr/bin/env python3
"""Run the benchmark on a base revision and on the working tree, and merge
the results into one JSON file:

    python3 scripts/collect_bench.py BENCH_<n>.json [BASE] [--seed N]

BASE (default ``HEAD``) is exported with ``git archive`` into a temporary
directory, and the working tree's files, as they are on disk and without the
ignored ones, are copied into another: each side runs from a checkout free
of caches and earlier results. Both sides run the inputs of the benchmark's
``--seed N`` (default 1; another seed checks a claim on inputs not used
while the change was written), which the output records. Every workload listed in
``BENCHMARK.json`` runs for its ``run_seconds`` on both sides, one run at a
time: ``PAIRS`` pairs at
``--trace 0`` and ``TRACED_PAIRS`` pairs at ``--trace 1``, alternating which
side goes first. The output holds the first pair's
``perfbench/results/*.json`` files at each trace level, both git SHAs, each
side's ``src_lines`` (the lines of the ``.py`` files under ``src/``) and
``src_file_lines`` (those lines per file), each side's per-layer values
from every traced run, and for every end-to-end metric the value of every
trace-0 run on each side, the two medians, each side's interquartile
range and the number of pairs the change won, and the summed ``failed``
counts. Beside them, under ``run_detail``, it keeps what the scaled times
are made of, for every trace-0 run and both medians: ``wall_iter_ms_p50`` and
``reference_ms_p50`` (the run's ``detail`` values; None where a side's
benchmark does not report them), and the run's minor page faults and system
seconds (``getrusage(RUSAGE_CHILDREN)`` deltas around the benchmark process).
After writing it, the script prints one line
per workload and end-to-end metric: both medians, the relative change, the
pairs won, both sides' IQRs and a verdict (see ``verdict``), and one line per
workload and ``run_detail`` value with both medians, the relative change and
the number of pairs, of those where both sides report it, in which the
change read lower. Then one line per
workload and trace level says whether the output digests (``detail.digest``)
of the first base run and the first change run are equal. Then one line per
workload and per-layer metric whose median shift over the traced pairs
exceeds ``LAYER_SHIFT``: both sides' medians and the median of the pairs'
relative changes (a single traced pair spreads by about as much as the
shifts it would show). Then a line gives both sides' ``src_lines`` and
their difference, and one more line does so for each file whose count
changed (a missing file counts 0).
"""

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10      # trace-0 pairs per workload
TRACED_PAIRS = 3     # trace-1 pairs per workload
LAYER_SHIFT = 0.05   # per-layer metrics whose median shift exceeds this are printed
# each run's values beside the end-to-end metrics: two its ``detail`` reports,
# then two ``getrusage`` gives
DETAIL_KEYS = ("wall_iter_ms_p50", "reference_ms_p50")
RUN_DETAIL = (*DETAIL_KEYS, "minor_faults", "system_s")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: pathlib.Path):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_worktree(dest: pathlib.Path):
    """Copy the working tree's tracked files and its untracked, unignored ones,
    as they are on disk, into ``dest``."""
    for rel in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if rel and (ROOT / rel).is_file():       # a deleted tracked file is still listed
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, dest / rel)


def src_file_lines(checkout: pathlib.Path) -> dict[str, int]:
    return {str(p.relative_to(checkout)): p.read_text().count("\n")
            for p in sorted((checkout / "src").rglob("*.py"))}


def run(command: list[str], checkout: pathlib.Path, workload: str, seed: int,
        seconds: float, trace: int) -> dict:
    subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    tag = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((checkout / "perfbench" / "results" / f"{tag}.json").read_text())


def timed_run(*args) -> tuple[dict, dict]:
    """``run``'s result, and its ``RUN_DETAIL`` values: those the result
    reports in ``detail``, and the minor faults and system seconds of the
    benchmark process (and of any process it waited for)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    res = run(*args)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    detail = res.get("detail", {})
    return res, {**{key: detail.get(key) for key in DETAIL_KEYS},
                 "minor_faults": after.ru_minflt - before.ru_minflt,
                 "system_s": after.ru_stime - before.ru_stime}


def _median(values: list) -> float | None:
    known = [v for v in values if v is not None]
    return statistics.median(known) if known else None


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def compare(base: list[float], change: list[float], better: str) -> dict:
    """The paired runs of one end-to-end metric: both sides' runs and
    medians, each side's interquartile range and the pairs the change won."""
    def iqr(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4)
        return q3 - q1

    lower = better == "lower"
    return {"base": base, "change": change,
            "median": [statistics.median(base), statistics.median(change)],
            "base_iqr": iqr(base), "change_iqr": iqr(change),
            "change_wins": sum(c < b if lower else c > b for b, c in zip(base, change))}


def verdict(m: dict, better: str, bound: float) -> str:
    """One end-to-end metric's verdict, ``m`` as ``compare`` gives it.

    UNRESOLVED: the base IQR exceeds ``bound`` times the base median, unless
    every change run beats every base run. REGRESSION: the change's median is
    worse than the base's by more than ``bound`` times the base median. GAIN:
    the change won at least 9 in 10 pairs and its median is better by more
    than the base IQR. NEUTRAL otherwise."""
    (base, change), iqr = m["median"], m["base_iqr"]
    lower = better == "lower"
    worse = change - base if lower else base - change
    beats_all = (max(m["change"]) < min(m["base"]) if lower
                 else min(m["change"]) > max(m["base"]))
    if iqr > bound * abs(base) and not beats_all:
        return "UNRESOLVED"
    if worse > bound * abs(base):
        return "REGRESSION"
    if m["change_wins"] >= 0.9 * len(m["base"]) and -worse > iqr:
        return "GAIN"
    return "NEUTRAL"


def summary(doc: dict) -> list[str]:
    lines = []
    specs = {m["name"]: m for m in benchmark()["end_to_end"]}
    for key, m in doc["end_to_end"].items():
        base, change = m["median"]
        spec = specs[key.rsplit(".", 1)[1]]
        rel = f"{(change - base) / base:+7.1%}" if base else "    n/a"
        lines.append(f"{key:28s} base {base:<10.4g} change {change:<10.4g} {rel}  "
                     f"wins {m['change_wins']}/{len(m['base'])}  base IQR {m['base_iqr']:.3g}"
                     f"  change IQR {m['change_iqr']:.3g}"
                     f"  {verdict(m, spec['better'], spec['bound'])}")
    for key, m in doc.get("run_detail", {}).items():
        base, change = m["median"]
        rel = f"{(change - base) / base:+7.1%}" if base and change is not None else "    n/a"
        pairs = [(b, c) for b, c in zip(m["base"], m["change"]) if None not in (b, c)]
        shown = [f"{v:<10.4g}" if v is not None else f"{'n/a':10s}" for v in m["median"]]
        lines.append(f"{key:28s} base {shown[0]} change {shown[1]} {rel}  "
                     f"lower {sum(c < b for b, c in pairs)}/{len(pairs)}")
    base, change = doc["base"]["results"], doc["change"]["results"]
    for key in sorted(base.keys() & change.keys()):
        b, c = base[key]["detail"]["digest"], change[key]["detail"]["digest"]
        lines.append(f"digest {key} equal" if b == c
                     else f"digest {key} base {b} change {c} DIFFERS")
    for workload in sorted(doc["base"]["per_layer"]):
        base, change = (doc[side]["per_layer"][workload] for side in ("base", "change"))
        for name in sorted(base.keys() & change.keys()):
            b, c = statistics.median(base[name]), statistics.median(change[name])
            shifts = [(y - x) / x for x, y in zip(base[name], change[name]) if x]
            if shifts:
                shift = statistics.median(shifts)
                moved, rel = abs(shift) > LAYER_SHIFT, f"{shift:+7.1%}"
            else:
                moved, rel = c != b, "    n/a"
            if moved:
                lines.append(f"{workload + '.' + name:52s} base {b:<10.4g} "
                             f"change {c:<10.4g} {rel}")
    base, change = doc["base"]["src_lines"], doc["change"]["src_lines"]
    lines.append(f"src_lines base {base} change {change} ({change - base:+d})")
    base, change = doc["base"]["src_file_lines"], doc["change"]["src_file_lines"]
    for path in sorted(base.keys() | change.keys()):
        b, c = base.get(path, 0), change.get(path, 0)
        if b != c:
            lines.append(f"src_lines {path} base {b} change {c} ({c - b:+d})")
    return lines


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", type=pathlib.Path)
    p.add_argument("base", nargs="?", default="HEAD")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    out, base_rev, seed = args.out, args.base, args.seed
    bench = benchmark()
    base_sha = git("rev-parse", "--verify", f"{base_rev}^{{commit}}")
    doc = {"seed": seed, "run_seconds": bench["run_seconds"],
           "base": {"rev": base_rev, "sha": base_sha, "results": {}},
           "change": {"sha": git("rev-parse", "HEAD"),
                      "dirty": bool(git("status", "--porcelain")), "results": {}}}
    runs = {side: {w["name"]: [] for w in bench["workloads"]} for side in ("base", "change")}
    details = {side: {w["name"]: [] for w in bench["workloads"]} for side in ("base", "change")}
    for side in ("base", "change"):
        doc[side]["per_layer"] = {w["name"]: {} for w in bench["workloads"]}
    with tempfile.TemporaryDirectory() as tmp:
        base_dir, change_dir = pathlib.Path(tmp) / "base", pathlib.Path(tmp) / "change"
        base_dir.mkdir()
        export(base_sha, base_dir)
        copy_worktree(change_dir)
        sides = [("base", base_dir), ("change", change_dir)]
        for side, checkout in sides:
            doc[side]["src_file_lines"] = src_file_lines(checkout)
            doc[side]["src_lines"] = sum(doc[side]["src_file_lines"].values())
        for workload in (w["name"] for w in bench["workloads"]):
            for i, trace in enumerate([0] * PAIRS + [1] * TRACED_PAIRS):
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    print(f"{side:6s} {workload} --trace {trace} pair {i}", flush=True)
                    res, detail = timed_run(bench["command"], checkout, workload, seed,
                                            bench["run_seconds"], trace)
                    key = f"{workload}-trace{trace}"
                    doc[side]["results"].setdefault(key, res)
                    if trace == 0:
                        runs[side][workload].append(
                            {"failed": res["failed"],
                             **{k: m["value"] for k, m in res["end_to_end"].items()}})
                        details[side][workload].append(detail)
                    else:
                        layers = doc[side]["per_layer"][workload]
                        for name, m in res["per_layer"].items():
                            layers.setdefault(name, []).append(m["value"])
    doc["end_to_end"] = {}
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            base, change = ([r[m["name"]] for r in runs[side][w["name"]]]
                            for side in ("base", "change"))
            doc["end_to_end"][f"{w['name']}.{m['name']}"] = {
                **compare(base, change, m["better"]), "failed": [
                    sum(r["failed"] for r in runs[side][w["name"]]) for side in ("base", "change")]}
    doc["run_detail"] = {}
    for w in bench["workloads"]:
        for name in RUN_DETAIL:
            base, change = ([d[name] for d in details[side][w["name"]]]
                            for side in ("base", "change"))
            doc["run_detail"][f"{w['name']}.{name}"] = {
                "base": base, "change": change, "median": [_median(base), _median(change)]}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
