"""Central finite-difference gradient checking utilities."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor


def numeric_grad(f: Callable[[], Tensor], x: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar ``f()`` w.r.t. every entry of x."""
    g = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f().item()
        flat[i] = orig - eps
        fm = f().item()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def max_grad_error(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Backpropagate the scalar ``f()`` once and return the worst relative
    error of every parameter's analytic gradient against central differences."""
    for p in params:
        p.grad = None
    f().backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, max_rel_error(analytic, numeric_grad(f, p)))
    return worst
