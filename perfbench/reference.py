"""A fixed reference kernel that tells how fast the host runs at the moment.

The benchmark runs on shared hosts whose speed drifts: a fixed loop of Python
and BLAS work can take 1.8 times longer in one minute than in the next. The
workloads therefore time this kernel between steps and frames, and scale every
interval they report by ``REF_S`` over the kernel's time measured around it.
Times then read as if the host ran at one fixed speed, at which the kernel
takes ``REF_S``. The kernel is the benchmark's own code, so no change to
bevfuse changes its time.

The kernel mixes the kinds of work bevfuse does: a float64 matrix product
(conv2d is im2col plus a BLAS product), elementwise numpy passes, and the
creation of many small Python objects (tape nodes, boxes in NMS).
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 1.0e-3          # the kernel's time at the nominal speed
REPS = 5                # kernel runs per sample; the sample is their median

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((192, 288))
_B = _rng.standard_normal((288, 64))
_C = _rng.standard_normal(40000)


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def kernel() -> int:
    y = _A @ _B
    np.tanh(y * 0.01, out=y)
    np.maximum(_C * 1.0001 + 0.5, 0.0).sum()
    nodes = [_Node(i, (i - 1,)) for i in range(800)]
    return sum(n.value for n in nodes)


def reference_s() -> float:
    """Median seconds of ``REPS`` kernel runs."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[REPS // 2]


kernel()                # warm up: the first run pays for allocation
