#!/usr/bin/env python3
"""Run the benchmark on a base revision and on the working tree, and merge
the results into one JSON file:

    python3 scripts/collect_bench.py BENCH_<n>.json [BASE]

BASE (default ``HEAD``) is exported with ``git archive`` into a temporary
directory. Every workload listed in ``BENCHMARK.json`` runs for its
``run_seconds`` on both sides, one run at a time: ``PAIRS`` pairs at
``--trace 0`` and one pair at ``--trace 1``, alternating which side goes
first. The output holds the first pair's ``perfbench/results/*.json`` files,
both git SHAs, each side's ``src_lines`` (the lines of the ``.py`` files
under ``src/``), and for every end-to-end metric the value of every trace-0
run on each side, the two medians, the base runs' interquartile range and
the number of pairs the change won, and the summed ``failed`` counts. After
writing it, the script prints one line per workload and end-to-end metric:
both medians, the relative change, the pairs won and the base IQR. Then one
line per workload and per-layer metric of the traced pair whose values differ
by more than ``LAYER_SHIFT`` of the base value: both values and the relative
change. A last line gives both sides' ``src_lines`` and their difference.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1        # both sides run the same inputs
PAIRS = 10      # trace-0 pairs per workload
LAYER_SHIFT = 0.05   # per-layer metrics that moved more than this are printed


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: pathlib.Path):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(checkout: pathlib.Path) -> int:
    return sum(p.read_text().count("\n") for p in (checkout / "src").rglob("*.py"))


def run(command: list[str], checkout: pathlib.Path, workload: str,
        seconds: float, trace: int) -> dict:
    subprocess.run([*command, "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    tag = f"{workload}-seed{SEED}-trace{trace}"
    return json.loads((checkout / "perfbench" / "results" / f"{tag}.json").read_text())


def summary(doc: dict) -> list[str]:
    lines = []
    for key, m in doc["end_to_end"].items():
        base, change = m["median"]
        rel = f"{(change - base) / base:+7.1%}" if base else "    n/a"
        lines.append(f"{key:28s} base {base:<10.4g} change {change:<10.4g} {rel}  "
                     f"wins {m['change_wins']}/{len(m['base'])}  base IQR {m['base_iqr']:.3g}")
    for key in sorted(k for k in doc["base"]["results"] if k.endswith("-trace1")):
        base, change = (doc[side]["results"][key]["per_layer"] for side in ("base", "change"))
        for name in sorted(base.keys() & change.keys()):
            b, c = base[name]["value"], change[name]["value"]
            if abs(c - b) > LAYER_SHIFT * abs(b):
                rel = f"{(c - b) / b:+7.1%}" if b else "    n/a"
                label = f"{key.removesuffix('-trace1')}.{name}"
                lines.append(f"{label:52s} base {b:<10.4g} change {c:<10.4g} {rel}")
    base, change = doc["base"]["src_lines"], doc["change"]["src_lines"]
    lines.append(f"src_lines base {base} change {change} ({change - base:+d})")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    out, base_rev = pathlib.Path(argv[0]), argv[1] if len(argv) == 2 else "HEAD"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_sha = git("rev-parse", "--verify", f"{base_rev}^{{commit}}")
    doc = {"seed": SEED, "run_seconds": bench["run_seconds"],
           "base": {"rev": base_rev, "sha": base_sha, "results": {}},
           "change": {"sha": git("rev-parse", "HEAD"),
                      "dirty": bool(git("status", "--porcelain")), "results": {}}}
    runs = {side: {w["name"]: [] for w in bench["workloads"]} for side in ("base", "change")}
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = pathlib.Path(tmp)
        export(base_sha, base_dir)
        doc["base"]["src_lines"], doc["change"]["src_lines"] = map(src_lines, (base_dir, ROOT))
        sides = [("base", base_dir), ("change", ROOT)]
        for workload in (w["name"] for w in bench["workloads"]):
            for i, trace in enumerate([0] * PAIRS + [1]):
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    print(f"{side:6s} {workload} --trace {trace} pair {i}", flush=True)
                    res = run(bench["command"], checkout, workload, bench["run_seconds"], trace)
                    key = f"{workload}-trace{trace}"
                    doc[side]["results"].setdefault(key, res)
                    if trace == 0:
                        runs[side][workload].append(
                            {"failed": res["failed"],
                             **{k: m["value"] for k, m in res["end_to_end"].items()}})
    doc["end_to_end"] = {}
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            base, change = ([r[m["name"]] for r in runs[side][w["name"]]]
                            for side in ("base", "change"))
            q1, _, q3 = statistics.quantiles(base, n=4)
            lower = m["better"] == "lower"
            doc["end_to_end"][f"{w['name']}.{m['name']}"] = {
                "base": base, "change": change, "failed": [
                    sum(r["failed"] for r in runs[side][w["name"]]) for side in ("base", "change")],
                "median": [statistics.median(base), statistics.median(change)],
                "base_iqr": q3 - q1,
                "change_wins": sum(c < b if lower else c > b for b, c in zip(base, change))}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
