"""bevfuse benchmark: drives ``train_run``/``eval_run`` on one workload and
prints its metrics.

    python3 perfbench/run.py --workload overfit_train --seed 1 --seconds 30 --trace 0

Run from the root of a bevfuse checkout. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer metrics from spans recorded around
the program's public functions. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Full results go to
``perfbench/results/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("overfit_train", "augment_train", "eval_sweep")


def import_program():
    """Put this checkout's ``src`` first on the path and import bevfuse from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bevfuse", "__init__.py")):
        raise SystemExit(f"error: no bevfuse sources under {src}")
    sys.path.insert(0, src)
    import bevfuse
    if os.path.dirname(os.path.abspath(bevfuse.__file__)) != os.path.join(src, "bevfuse"):
        raise SystemExit(f"error: bevfuse imported from {bevfuse.__file__}, not {src}")


def git_state() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "git": git_state(), "seed": seed}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    from workloads import run_workload

    os.makedirs(RESULTS, exist_ok=True)
    result = run_workload(ROOT, args.workload, args.seed, args.seconds,
                          bool(args.trace), work=os.path.join(RESULTS, "work"))
    tracer = result.pop("tracer", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.spans.save(os.path.join(RESULTS, f"{tag}-spans.npz"))
        if result["missing_wrappers"]:
            print("error: wrappers never fired (a call was rerouted?): "
                  + ", ".join(result["missing_wrappers"]), file=sys.stderr)
            return 3
    result["env"] = environment(args.seed)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)

    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(f"{tag}: {result['detail']['calls']} calls, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, m in {**result["end_to_end"], **result["workload_metrics"],
                    **metrics}.items():
        print(f"  {name:32s} {m['value']} {m['unit']}")
    for name, value in result["detail"].items():
        if not isinstance(value, list):
            print(f"  {name:32s} {value}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": result["failed"] == 0 and not result["problems"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
