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


def max_directional_error(f: Callable[[], Tensor], params: Sequence[Tensor],
                          rng: np.random.Generator) -> float:
    """Backpropagate the scalar ``f()`` once and return the worst relative
    error of ``∇f · v`` against ``(f(θ + εv) - f(θ - εv)) / 2ε`` over 4
    standard-normal directions ``v`` spanning every entry of ``params``.
    This checks large parameter sets in a few evaluations. ε is 1e-7: on
    the full-size model, steps of 1e-5 and 1e-6 cross ReLU kinks and read
    errors up to 6e-2 and 2e-3."""
    eps = 1e-7
    for p in params:
        p.grad = None
    f().backward()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    orig = [p.data.copy() for p in params]
    worst = 0.0
    for _ in range(4):
        v = [rng.standard_normal(p.shape) for p in params]
        analytic = sum(float(np.vdot(g, d)) for g, d in zip(grads, v))
        values = []
        for sign in (1.0, -1.0):
            for p, o, d in zip(params, orig, v):
                p.data[...] = o + sign * eps * d
            values.append(f().item())
        for p, o in zip(params, orig):
            p.data[...] = o
        numeric = (values[0] - values[1]) / (2 * eps)
        worst = max(worst, max_rel_error(np.array(analytic), np.array(numeric)))
    return worst
