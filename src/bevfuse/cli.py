"""Command-line entry point: train / eval / ablate / gradcheck / report, all
driven by a YAML config. The benchmark is ``perfbench/run.py``.

Exit codes: 0 success, 2 configuration or input-file error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .config import ConfigError, ExperimentConfig, FusionSection, \
    apply_env_overrides, config_from_dict, load_config
from .pipeline import NumericError
from .tensor import InputError

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3


def _load(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = config_from_dict(apply_env_overrides({}))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)      # rechecks the seed
    return cfg


def _add_common(p, need_out=True):
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    if need_out:
        p.add_argument("--out", required=True, help="run output directory")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bevfuse",
                                description="continuous-fusion BEV detector")
    sub = p.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("train", help="train a model"))

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(ev)
    ev.add_argument("--checkpoint", required=True)

    ab = sub.add_parser("ablate", help="train every fusion variant")
    _add_common(ab)
    ab.add_argument("--knn-grid", default=None,
                    help="comma list of k:max_dist pairs, e.g. 1:10,3:2")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    gc.add_argument("--rtol", type=float, default=1e-4)
    gc.add_argument("--seed", type=int, default=0)

    rp = sub.add_parser("report", help="print a saved run's metrics")
    rp.add_argument("run_dir", help="directory produced by train/ablate")
    return p


def _cmd_train(args) -> int:
    from .pipeline import train_run
    report = train_run(_load(args), args.out)
    print(json.dumps({"ap": report["ap"], "final_loss": report["final_loss"]},
                     sort_keys=True))
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .pipeline import eval_run
    report = eval_run(_load(args), args.checkpoint, args.out)
    print(json.dumps({"ap": report["ap"]}, sort_keys=True))
    return EXIT_OK


def _cmd_ablate(args) -> int:
    from .pipeline import ablate_run
    grid = None
    if args.knn_grid:
        try:
            grid = [FusionSection(int(k), float(d)) for k, d in
                    (pair.split(":") for pair in args.knn_grid.split(","))]
        except ValueError as e:
            raise ConfigError(f"bad --knn-grid: {e}") from None
    rows = ablate_run(_load(args), args.out, knn_grid=grid)
    for r in rows:
        ap = "n/a" if r["ap"] is None else f"{r['ap']:.4f}"
        print(f"{r['variant']:>18s}  k={r['k']} d={r['max_dist']:g}  AP={ap}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from .pipeline import run_gradcheck
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if not 0 < args.rtol < math.inf:        # NaN fails this too
        raise ConfigError(f"rtol must be finite and > 0, got {args.rtol}")
    rows = run_gradcheck(rtol=args.rtol, seed=args.seed)
    ok = True
    for name, err, passed in rows:
        ok &= passed
        print(f"{name:>24s}  max_rel_err={err:.3e}  {'PASS' if passed else 'FAIL'}")
    if not ok:
        raise NumericError("gradient check failed")
    return EXIT_OK


def _cmd_report(args) -> int:
    import os
    for name in ("final_metrics.json", "eval_report.json", "ablation.json"):
        path = os.path.join(args.run_dir, name)
        if os.path.exists(path):
            with open(path) as f:
                try:
                    metrics = json.load(f)
                except (json.JSONDecodeError, UnicodeDecodeError) as e:
                    raise InputError(f"{path}: malformed JSON: {e}") from None
            print(json.dumps(metrics, indent=2, sort_keys=True))
            return EXIT_OK
    raise ConfigError(f"no metrics found under {args.run_dir}")


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "ablate": _cmd_ablate,
             "gradcheck": _cmd_gradcheck, "report": _cmd_report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
