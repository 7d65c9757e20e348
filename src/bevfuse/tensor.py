"""Minimal dense-tensor reverse-mode autodiff engine.

Everything is float64 and numpy-backed. The tape is built eagerly during the
forward pass and torn down after ``backward``; inside ``no_grad`` no tape is
built. The tape is made of nodes, not tensors: each op output's node holds
its grad slot, its parents' nodes and a backward closure over exactly the
arrays that backward reads, so an intermediate that no caller holds is freed
as the forward pass proceeds. No broadcasting beyond scalar-tensor; reshape
explicitly.

A training step keeps its largest arrays from one step to the next:
``Adam`` holds the parameters, their grads and both moments in flat arrays,
and a backward pass after ``zero_grad()`` writes into the same ``.grad``
arrays. Building an ``Adam`` also asks glibc's malloc to keep the memory a
freed tape leaves, so the next step reuses it instead of faulting it in
again; a process that has trained keeps that memory until it exits.

Feature maps are N x C x H x W: one map per scene, so one tape serves a whole
batch. The map ops (``conv2d``, ``add_channel_bias``, ``upsample2x``,
``bilinear_sample``) take no other rank; one scene is a batch of one.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import struct
from typing import Callable, Iterable, Sequence

import numpy as np


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Inside the block, op outputs record no tape: nothing can be
    backpropagated through them, and nothing they saw is kept alive."""
    global _grad_enabled
    outer, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = outer


class _Node:
    """A tensor's place on the tape: its grad slot, and for an op output its
    parents' nodes and the backward closure. It holds no data, so an op
    output that no caller holds is freed as the forward pass proceeds, while
    its grad slot stays on the tape. A parameter's node also holds ``slot``,
    its view of its ``Adam``'s flat grad array."""

    __slots__ = ("grad", "shape", "requires_grad", "parents", "backward", "slot")

    def __init__(self, shape, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.shape = shape
        self.requires_grad = requires_grad
        self.parents: tuple[_Node, ...] = ()
        self.backward: Callable[[np.ndarray], None] | None = None
        self.slot: np.ndarray | None = None

    def accumulate(self, g: np.ndarray):
        """The tape's one gradient rule: a node that takes no grad takes
        nothing, and a node of one value takes the sum of a grad of another
        shape (the broadcast scalar operand of ``+`` and ``*``)."""
        if not self.requires_grad:
            return
        if g.shape != self.shape and math.prod(self.shape) == 1:
            g = g.sum()
        if self.grad is None:
            # 0.0 + g into the slot or a fresh array: never aliases g, and
            # -0.0 reads back as 0.0
            out = np.empty(self.shape) if self.slot is None else self.slot
            self.grad = np.add(g, 0.0, out=out)
        else:
            self.grad += g


class Tensor:
    """Dense N-d array and its tape node. No backward closure holds a
    Tensor, only nodes and the arrays it reads."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node(self.data.shape, requires_grad)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], op: str,
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Every op's output. ``op`` names the op for tracers; no node keeps it."""
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            node = out._node
            node.requires_grad = True
            node.parents = tuple(p._node for p in parents)
            node.backward = backward
        return out

    # -- plumbing -------------------------------------------------------------

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None):
        self._node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return self._node.backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Accumulate gradients of this scalar into every requires_grad ancestor."""
        if self.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        root = self._node
        topo: list[_Node] = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        root.accumulate(np.ones_like(self.data))
        # popping drops the list's reference as soon as a node has passed its
        # grad on, so an intermediate nobody else holds is freed at once
        while topo:
            node = topo.pop()
            if node.backward is not None:
                node.backward(node.grad)
                # free the tape: intermediate grads are not user-visible state
                node.parents = ()
                node.backward = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise ops ------------------------------------------------------

    def _operand(self, other) -> "Tensor":
        """``other`` as the second operand of an elementwise op: a Tensor of
        this shape, or either side of one value whose rank does not widen the
        result past the other's shape; a scalar becomes a Tensor."""
        if not isinstance(other, Tensor):
            if np.ndim(other) != 0:
                raise TypeError("only Tensor or scalar operands are supported")
            other = Tensor(np.float64(other))
        shapes = self.shape, other.shape
        if shapes[0] != shapes[1] and (self.size != 1 and other.size != 1
                                       or np.broadcast_shapes(*shapes) not in shapes):
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return other

    def __add__(self, other):
        other = self._operand(other)
        a, b = self._node, other._node

        def bw(g):
            a.accumulate(g)
            b.accumulate(g)

        return Tensor._result(self.data + other.data, (self, other), "add", bw)

    __radd__ = __add__

    def __neg__(self):
        node = self._node

        def bw(g):
            node.accumulate(-g)

        return Tensor._result(-self.data, (self,), "neg", bw)

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def __mul__(self, other):
        other = self._operand(other)
        a, b = self._node, other._node
        ad, bd = self.data, other.data

        def bw(g):
            a.accumulate(g * bd)
            b.accumulate(g * ad)

        return Tensor._result(ad * bd, (self, other), "mul", bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._operand(other) ** -1.0

    def __pow__(self, exponent: float):
        node, ad = self._node, self.data

        def bw(g):
            node.accumulate(g * exponent * ad ** (exponent - 1.0))

        return Tensor._result(ad ** exponent, (self,), "pow", bw)

    def relu(self):
        node, mask = self._node, self.data > 0

        def bw(g):
            node.accumulate(g * mask)

        return Tensor._result(self.data * mask, (self,), "relu", bw)

    # -- reductions / shape ops -----------------------------------------------

    def sum(self):
        node = self._node

        def bw(g):
            node.accumulate(np.full(node.shape, float(g)))

        return Tensor._result(np.asarray(self.data.sum()), (self,), "sum", bw)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        node = self._node

        def bw(g):
            node.accumulate(g.reshape(node.shape))

        return Tensor._result(self.data.reshape(shape), (self,), "reshape", bw)

    def transpose(self, axes: Sequence[int]):
        node, inv = self._node, np.argsort(axes)

        def bw(g):
            node.accumulate(g.transpose(inv))

        return Tensor._result(self.data.transpose(axes), (self,), "transpose", bw)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """2D matrix product ``a @ b``, plus a 1 x D row ``bias`` added to every
    row when given; the bias grad is the column sums of the output grad."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if bias is not None and bias.shape != (1, b.shape[1]):
        raise ValueError(f"matmul bias {bias.shape} is not a 1 x {b.shape[1]} row")
    ad, bd = a.data, b.data
    parents = (a, b) if bias is None else (a, b, bias)
    na, nb = a._node, b._node
    nbias = None if bias is None else bias._node

    def bw(g):
        if na.requires_grad:
            na.accumulate(g @ bd.T)
        if nb.requires_grad:
            nb.accumulate(ad.T @ g)
        if nbias is not None:
            nbias.accumulate(g.sum(axis=0, keepdims=True))

    out = ad @ bd
    if bias is not None:
        out += bias.data
    return Tensor._result(out, parents, "matmul", bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    nodes = [t._node for t in parts]
    offsets = np.cumsum([0] + [t.shape[axis] for t in parts])

    def bw(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            node.accumulate(g[tuple(sl)])

    return Tensor._result(np.concatenate([t.data for t in parts], axis=axis),
                          parts, "concat", bw)


def _map_extents(op: str, x: Tensor) -> tuple[int, int, int, int]:
    """The (n, c, h, w) of N x C x H x W maps; any other rank raises."""
    if x.ndim != 4:
        raise ValueError(f"{op} takes N x C x H x W maps, got shape {x.shape}")
    return x.shape


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias (shape C) to N x C x H x W maps."""
    if b.shape != (_map_extents("add_channel_bias", x)[1],):
        raise ValueError(f"add_channel_bias shapes incompatible: {x.shape} + {b.shape}")
    nx, nb = x._node, b._node

    def bw(g):
        nx.accumulate(g)
        nb.accumulate(g.sum(axis=(0, 2, 3)))

    return Tensor._result(x.data + b.data[:, None, None], (x, b), "add_channel_bias", bw)


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, shape) -> np.ndarray:
    """Zeros of ``shape`` plus each row of ``rows`` (``idx.shape + shape[1:]``)
    added at its row ``idx``. One ``np.bincount`` over flat indices in
    ``idx`` order makes the adds of ``np.add.at``, in its order, from 0.0."""
    d = math.prod(shape[1:])
    flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, rows.ravel(), minlength=shape[0] * d).reshape(shape)


def gather_rows(t: Tensor, idx) -> Tensor:
    """Select ``t[idx]`` along the first axis of ``t``; the result has shape
    ``idx.shape + t.shape[1:]``. The adjoint is scatter-add."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[0]):
        raise IndexError("gather_rows index out of range")
    node = t._node

    def bw(g):
        node.accumulate(_scatter_rows(idx, g, node.shape))

    return Tensor._result(t.data[idx], (t,), "gather_rows", bw)


def scatter_add_rows(t: Tensor, idx, num_rows: int) -> Tensor:
    """Sum rows of ``t`` into an output of ``num_rows`` rows at positions ``idx``."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError("scatter_add_rows index out of range")
    out = _scatter_rows(idx, t.data, (num_rows,) + t.shape[1:])
    node = t._node

    def bw(g):
        node.accumulate(g[idx])

    return Tensor._result(out, (t,), "scatter_add_rows", bw)


# -- detection loss -----------------------------------------------------------

def logistic(x):
    """1 / (1 + exp(-x)) of an array of logits, clipped so exp stays finite."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def bce_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean binary cross entropy of raw logits against 0/1 labels, computed
    as max(x, 0) - x·y + log1p(exp(-|x|)). It stays finite and keeps a
    gradient, (σ(x) - y) / n, at any logit. The mean of no logits is 0."""
    x = logits.data
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != x.shape:
        raise ValueError(f"bce_with_logits shapes differ: {x.shape} vs {y.shape}")
    # exp(-|x|) underflows to 0 for |x| > ~745, which is its value in float64
    with np.errstate(under="ignore"):
        per = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    n, node = max(x.size, 1), logits._node

    def bw(g):
        node.accumulate(g * (logistic(x) - y) / n)

    return Tensor._result(np.asarray(per.sum() / n), (logits,), "bce_with_logits", bw)


def smooth_l1_sum(pred: Tensor, target) -> Tensor:
    """Sum over every entry of the smooth-L1 penalty of x = pred - target:
    x²/2 where |x| < 1, |x| - 1/2 elsewhere. Its gradient is x inside the
    unit band and sign(x) outside."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError(f"smooth_l1_sum shapes differ: {pred.shape} vs {target.shape}")
    x = pred.data - target
    near, node = np.abs(x) < 1.0, pred._node

    def bw(g):
        node.accumulate(g * np.where(near, x, np.sign(x)))

    penalty = np.where(near, x * x * 0.5, np.abs(x) - 0.5)
    return Tensor._result(np.asarray(penalty.sum()), (pred,), "smooth_l1_sum", bw)


# -- convolution --------------------------------------------------------------

def _conv_out_extent(n: int, k: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - k) // stride + 1


# Columns are laid out (C, kh, kw) down the rows and (N, Ho, Wo) along the
# columns. The windows are one strided view in that axis order, so the
# reshape to C·kh·kw x N·Ho·Wo is the only copy, and it copies nothing when
# the windows reshape as a view. For an unpadded contiguous input the
# columns are then a view of the input, which the backward pass reads again
# for the weight grad, so an input's ``.data`` must not be written between
# the forward and the backward pass. A 1 x 1 conv at stride 1 on a batch of
# one is such a case, and so are, among others, a 1 x 1 conv at any stride
# on one map one pixel high or wide, and a 1 x 1 conv on a batch of
# one-pixel maps.
def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
            ho: int, wo: int) -> np.ndarray:
    n, c, h, w = x.shape
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding:-padding, padding:-padding] = x
        x = xp
    else:
        x = np.ascontiguousarray(x)
    sn, sc, sh, sw = x.strides
    # the ndarray constructor is a much cheaper strided view than as_strided
    windows = np.ndarray((c, kh, kw, n, ho, wo), x.dtype, x, 0,
                         (sc, sh, sw, sn, sh * stride, sw * stride))
    return windows.reshape(c * kh * kw, n * ho * wo)


def _col2im(cols: np.ndarray, shape, kh, kw, stride, padding, ho, wo) -> np.ndarray:
    """The adjoint of ``_im2col``: an array of the input's ``shape``."""
    n, c, h, w = shape
    # zeros plus += even where windows do not overlap, so a -0.0 in the
    # columns reads back as 0.0; the (i, j) order fixes the rounding
    acc = np.zeros((c, n, h + 2 * padding, w + 2 * padding))
    cols = cols.reshape(c, kh, kw, n, ho, wo)
    for i in range(kh):
        for j in range(kw):
            acc[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride] += cols[:, i, j]
    if padding:
        acc = acc[:, :, padding:-padding, padding:-padding]
    return acc.transpose(1, 0, 2, 3)


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution of N x C_in x H x W maps with C_out x C_in x kh x kw
    weights. One GEMM covers the whole batch, so the weight grad sums over
    N·Ho·Wo columns at once.

    The backward pass reads ``weight.data``, and reads ``x.data`` through a
    view when ``x`` is unpadded and contiguous and its columns reshape as a
    view (see ``_im2col``): nothing may write either between this call and
    ``backward``."""
    c_out, c_in, kh, kw = weight.shape
    n, c, h, w = _map_extents("conv2d", x)
    if c != c_in:
        raise ValueError(f"conv2d input {x.shape} incompatible with weight {weight.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d kernel extents must be odd")
    if stride < 1:
        raise ValueError("conv2d stride must be >= 1")
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    if ho <= 0 or wo <= 0:
        raise ValueError(f"conv2d output extent non-positive for input {x.shape}")
    cols = _im2col(x.data, kh, kw, stride, padding, ho, wo)
    wd, nx, nw = weight.data, x._node, weight._node
    wmat = wd.reshape(c_out, c_in * kh * kw)
    # C_out x N x Ho x Wo to N x C_out x Ho x Wo: a copy only for N > 1
    out = np.ascontiguousarray((wmat @ cols).reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3))

    def bw(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(c_out, n * ho * wo)
        # ``accumulate`` drops a constant's grad; these tests, and matmul's, skip
        # its GEMM (each stream's first conv takes a constant input)
        if nw.requires_grad:
            nw.accumulate((g2 @ cols.T).reshape(wd.shape))
        if nx.requires_grad:
            if stride == 1 and kh == kw and padding < kh:
                # transposed conv: correlate g, padded to k-1-padding, with the
                # flipped weights, (C_in, C_out, kh, kw) as a C_in-row matrix
                flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                gcols = _im2col(g, kh, kw, 1, kh - 1 - padding, h, w)
                gx = (flipped.reshape(c_in, -1) @ gcols).reshape(c_in, n, h, w)
                nx.accumulate(gx.transpose(1, 0, 2, 3))
            else:
                nx.accumulate(_col2im(wmat.T @ g2, nx.shape, kh, kw, stride, padding,
                                      ho, wo))

    return Tensor._result(out, (x, weight), "conv2d", bw)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling of N x C x H x W maps."""
    n, c, h, w = _map_extents("upsample2x", x)
    node = x._node

    def bw(g):
        node.accumulate(g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    out = np.repeat(np.repeat(x.data, 2, axis=-2), 2, axis=-1)
    return Tensor._result(out, (x,), "upsample2x", bw)


def sample_maps(fm: np.ndarray, uv, scene=None):
    """The one bilinear kernel: N x C x H x W maps sampled at P continuous
    (u, v) pixel coordinates, sample p on map ``scene[p]`` (all 0 when
    omitted); outside [0, W-1] x [0, H-1] a sample is the zero vector.
    Returns the P x C samples, each sample's map and corner indices
    ``(scene, v0, v1, u0, u1)``, and the weights of its corners (v0, u0),
    (v0, u1), (v1, u0) and (v1, u1)."""
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    n, c, h, w = _map_extents("bilinear_sample", fm)
    scene = np.zeros(len(uv), np.intp) if scene is None else np.asarray(scene, np.intp)
    if scene.shape != (len(uv),):
        raise ValueError(f"bilinear_sample needs one scene per sample, got {scene.shape}")
    if scene.size and (scene.min() < 0 or scene.max() >= n):
        raise IndexError("bilinear_sample scene index out of range")
    u, v = uv[:, 0], uv[:, 1]
    inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    u0 = np.minimum(np.floor(uc), w - 2 if w > 1 else 0).astype(np.intp)
    v0 = np.minimum(np.floor(vc), h - 2 if h > 1 else 0).astype(np.intp)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    du = uc - u0
    dv = vc - v0
    w00 = (1 - du) * (1 - dv) * inside
    w01 = du * (1 - dv) * inside
    w10 = (1 - du) * dv * inside
    w11 = du * dv * inside
    out = (fm[scene, :, v0, u0] * w00[:, None] + fm[scene, :, v0, u1] * w01[:, None] +
           fm[scene, :, v1, u0] * w10[:, None] + fm[scene, :, v1, u1] * w11[:, None])
    return out, (scene, v0, v1, u0, u1), (w00, w01, w10, w11)


def bilinear_sample(feature_map: Tensor, uv: np.ndarray, scene=None) -> Tensor:
    """``sample_maps`` of N x C x H x W maps as a tape op -> P x C.
    Differentiable with respect to the feature maps only."""
    out, (scene, v0, v1, u0, u1), weights = sample_maps(feature_map.data, uv, scene)
    n, c, h, w = feature_map.shape
    node = feature_map._node

    def bw(g):
        # each sample's C-row adds into row scene·H·W + pixel of an
        # (N·H·W) x C map, corner-major, then sample, as np.add.at per
        # corner did
        pix = np.stack((v0 * w + u0, v0 * w + u1, v1 * w + u0, v1 * w + u1)) \
            + scene * (h * w)
        wgt = np.stack(weights)[:, :, None] * g
        acc = _scatter_rows(pix, wgt, (n * h * w, c))
        node.accumulate(acc.reshape(n, h, w, c).transpose(0, 3, 1, 2))

    return Tensor._result(out, (feature_map,), "bilinear_sample", bw)


# -- optimizer ----------------------------------------------------------------

def _keep_freed_memory():
    """Ask glibc's malloc to keep freed memory: trim the heap top only past
    1 GiB (``M_TRIM_THRESHOLD``, -1), and serve blocks up to 32 MiB, the
    largest threshold on 64-bit, from the heap (``M_MMAP_THRESHOLD``, -3).
    A C library without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-1, 1 << 30)
    mallopt(-3, 32 << 20)


class Adam:
    """Standard Adam with bias correction, applied in place to f64 parameters.

    Only training builds one, so building one sets ``_keep_freed_memory``'s
    allocator policy: the process then keeps what it frees until it exits.
    The parameters, their grads and both moments live in flat arrays, so a
    training step allocates none of them again:
    - each parameter's ``.data`` becomes a view of ``flat``, which holds the
      values it had. ``.data`` is written in place from then on (as
      ``load_parameters`` does), never rebound;
    - a parameter belongs to one ``Adam``;
    - each parameter's first grad of a backward pass is written into its
      view of one flat grad array, so after ``zero_grad()`` the next backward
      overwrites the same ``.grad`` arrays in place. A ``.grad`` assigned by
      hand is copied into that view by ``step``.
    """

    CHUNK = 16384       # elements per pass of ``step``

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        if (len({id(p) for p in self.params}) < len(self.params)
                or any(p._node.slot is not None for p in self.params)):
            raise ValueError("a parameter belongs to one Adam, once")
        _keep_freed_memory()
        size = sum(p.size for p in self.params)
        self.flat = np.empty(size)
        self._grad = np.empty(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        lo = 0
        for p in self.params:
            hi = lo + p.size
            view = self.flat[lo:hi].reshape(p.shape)
            view[...] = p.data
            p.data = view
            p._node.slot = self._grad[lo:hi].reshape(p.shape)
            lo = hi
        self._scratch = np.empty((2, min(size, self.CHUNK)))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """p -= lr · m̂ / (√v̂ + eps): the operations of that expression in its
        order, each in place or into a scratch array, over ``CHUNK`` elements
        of the flat arrays at a time."""
        for p in self.params:
            g, slot = p.grad, p._node.slot
            if g is None:
                raise ValueError("Adam.step() called with a parameter missing its grad")
            if g is not slot:
                slot[...] = g
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for lo in range(0, self.flat.size, self.CHUNK):
            hi = min(lo + self.CHUNK, self.flat.size)
            g, m, v = self._grad[lo:hi], self._m[lo:hi], self._v[lo:hi]
            s, step = self._scratch[:, :hi - lo]
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            v += np.multiply(s, g, out=s)
            np.sqrt(np.divide(v, c2, out=s), out=s)
            s += self.eps
            np.divide(m, c1, out=step)
            step *= self.lr
            step /= s
            self.flat[lo:hi] -= step


# -- checkpoint format --------------------------------------------------------
#
# Byte layout (all integers little-endian):
#   magic  b"BFCK"
#   u8     version (currently 1)
#   u32    record count
#   per record:
#     u16  name length, then utf-8 name bytes
#     u8   ndim, then ndim x u32 extents
#     f64  data, row-major, little-endian

_CKPT_MAGIC = b"BFCK"
_CKPT_VERSION = 1


class InputError(ValueError):
    """A file or setting handed to the program is malformed: a checkpoint, a
    config, a dataset file. The command line maps it to exit code 2."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", keep_on: type | tuple = ()):
    """Open a temporary file beside ``path``; when the block ends without
    an exception, or with one of the ``keep_on`` types, move it onto
    ``path``. Otherwise the temporary file is removed and ``path`` keeps
    what it held."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            with open(tmp, mode) as f:
                yield f
        except keep_on:
            os.replace(tmp, path)
            raise
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_checkpoint(params: dict, path):
    with atomic_write(path, "wb") as f:
        f.write(_CKPT_MAGIC + struct.pack("<BI", _CKPT_VERSION, len(params)))
        for name, t in params.items():
            # asarray, not ascontiguousarray: the latter makes a 0-d array 1-d
            arr = np.asarray(t.data if isinstance(t, Tensor) else t, dtype="<f8", order="C")
            nb = name.encode("utf-8")
            f.write(struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
            f.write(arr)


def load_checkpoint(path) -> dict:
    """Parameters saved by ``save_checkpoint``; every length is checked
    against the file size, so a damaged file raises InputError."""
    with open(path, "rb") as f:
        size = f.seek(0, 2)
        f.seek(0)
        pos = 0             # kept here: each f.tell() would be a system call

        def need(nbytes: int) -> int:
            nonlocal pos
            if pos + nbytes > size:
                raise InputError(f"{path}: checkpoint truncated at byte {size}")
            pos += nbytes
            return nbytes

        def take(nbytes: int) -> bytes:
            return f.read(need(nbytes))

        if take(4) != _CKPT_MAGIC:
            raise InputError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<B", take(1))
        if version != _CKPT_VERSION:
            raise InputError(f"{path}: unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", take(4))
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(2))
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError as e:
                raise InputError(f"{path}: bad parameter name: {e}") from None
            if name in out:
                raise InputError(f"{path}: parameter {name!r} is stored twice")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            need(8 * math.prod(shape))           # before np.empty allocates it
            out[name] = arr = np.empty(shape, dtype="<f8")
            f.readinto(arr)
        if pos != size:
            raise InputError(f"{path}: {size - pos} bytes after the last record")
        return out
