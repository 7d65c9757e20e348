#!/usr/bin/env python3
"""Run the benchmark on a base revision and on the working tree, and merge
the results into one JSON file:

    python3 scripts/collect_bench.py BENCH_<n>.json [BASE]

BASE (default ``HEAD``) is exported with ``git archive`` into a temporary
directory. Every workload listed in ``BENCHMARK.json`` runs for its
``run_seconds`` at ``--trace 0`` and ``--trace 1`` on both sides, one run at
a time, alternating which side goes first. The output holds each run's
``perfbench/results/*.json`` file, both git SHAs, and a table of the
end-to-end metrics side by side.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1        # both sides run the same inputs


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: pathlib.Path):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(command: list[str], checkout: pathlib.Path, workload: str,
        seconds: float, trace: int) -> dict:
    subprocess.run([*command, "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    tag = f"{workload}-seed{SEED}-trace{trace}"
    return json.loads((checkout / "perfbench" / "results" / f"{tag}.json").read_text())


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
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = pathlib.Path(tmp)
        export(base_sha, base_dir)
        sides = [("base", base_dir), ("change", ROOT)]
        for i, (workload, trace) in enumerate(
                (w["name"], t) for w in bench["workloads"] for t in (0, 1)):
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                print(f"{side:6s} {workload} --trace {trace}", flush=True)
                doc[side]["results"][f"{workload}-trace{trace}"] = run(
                    bench["command"], checkout, workload, bench["run_seconds"], trace)
    doc["end_to_end"] = {
        f"{w['name']}.{m['name']}": [
            doc[side]["results"][f"{w['name']}-trace0"]["end_to_end"][m["name"]]["value"]
            for side in ("base", "change")]
        for w in bench["workloads"] for m in bench["end_to_end"]}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
