#!/usr/bin/env python3
"""Train the shipped overfit configuration and print the resulting metrics:
``bevfuse train`` with configs/overfit.yaml and runs/overfit as defaults.
Other options (``--seed``, or a different ``--config`` / ``--out``) pass
through to the command line."""

import pathlib
import sys

from bevfuse.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.exit(main(["train", "--config", str(ROOT / "configs" / "overfit.yaml"),
                   "--out", "runs/overfit", *sys.argv[1:]]))
