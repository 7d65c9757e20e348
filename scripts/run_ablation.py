#!/usr/bin/env python3
"""Train every fusion variant on the occlusion-heavy dataset and print a
comparison table: ``bevfuse ablate`` with configs/ablation.yaml and
runs/ablation as defaults. Other options (``--knn-grid``, ``--seed``, or a
different ``--config`` / ``--out``) pass through to the command line."""

import pathlib
import sys

from bevfuse.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.exit(main(["ablate", "--config", str(ROOT / "configs" / "ablation.yaml"),
                   "--out", "runs/ablation", *sys.argv[1:]]))
