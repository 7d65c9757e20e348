"""Minimal dense-tensor reverse-mode autodiff engine.

Everything is float64 and numpy-backed. The tape is built eagerly during the
forward pass (each op output keeps closures over its parents) and torn down
after ``backward``. No broadcasting beyond scalar-tensor; reshape explicitly.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from typing import Callable, Iterable, Sequence

import numpy as np


class Tensor:
    """Dense N-d array with an optional gradient tape node."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = ""

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], op: str,
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    # -- plumbing -------------------------------------------------------------

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

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            # 0.0 + g into a fresh array: never aliases g, and -0.0 reads back as 0.0
            self.grad = np.add(g, 0.0, out=np.empty(self.data.shape))
        else:
            self.grad += g

    def backward(self):
        """Accumulate gradients of this scalar into every requires_grad ancestor."""
        if self.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                # free the tape: intermediate grads are not user-visible state
                node._parents = ()
                node._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise ops ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        if np.ndim(other) == 0:
            return Tensor(np.float64(other))
        raise TypeError("only Tensor or scalar operands are supported")

    def _check_same_shape(self, other: "Tensor"):
        if self.shape != other.shape and self.size != 1 and other.size != 1:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same_shape(other)
        a, b = self, other

        def bw(g):
            if a.requires_grad:
                a._accumulate(g if a.size > 1 or g.size == 1 else g.sum())
            if b.requires_grad:
                b._accumulate(g if b.size > 1 or g.size == 1 else g.sum())

        return Tensor._result(a.data + b.data, (a, b), "add", bw)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bw(g):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._result(-a.data, (a,), "neg", bw)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_same_shape(other)
        a, b = self, other
        ad, bd = a.data, b.data

        def bw(g):
            if a.requires_grad:
                ga = g * bd
                a._accumulate(ga if a.size > 1 or ga.size == 1 else ga.sum())
            if b.requires_grad:
                gb = g * ad
                b._accumulate(gb if b.size > 1 or gb.size == 1 else gb.sum())

        return Tensor._result(ad * bd, (a, b), "mul", bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other ** -1.0

    def __pow__(self, exponent: float):
        a = self
        ad = a.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(g * exponent * ad ** (exponent - 1.0))

        return Tensor._result(ad ** exponent, (a,), "pow", bw)

    def relu(self):
        a = self
        mask = a.data > 0

        def bw(g):
            if a.requires_grad:
                a._accumulate(g * mask)

        return Tensor._result(a.data * mask, (a,), "relu", bw)

    # -- reductions / shape ops -----------------------------------------------

    def sum(self):
        a = self

        def bw(g):
            if a.requires_grad:
                a._accumulate(np.full_like(a.data, float(g)))

        return Tensor._result(np.asarray(a.data.sum()), (a,), "sum", bw)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape

        def bw(g):
            if a.requires_grad:
                a._accumulate(g.reshape(old))

        return Tensor._result(a.data.reshape(shape), (a,), "reshape", bw)

    def transpose(self, axes: Sequence[int]):
        a = self
        inv = np.argsort(axes)

        def bw(g):
            if a.requires_grad:
                a._accumulate(g.transpose(inv))

        return Tensor._result(a.data.transpose(axes), (a,), "transpose", bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2D matrix product with gradient rules."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ bd.T)
        if b.requires_grad:
            b._accumulate(ad.T @ g)

    return Tensor._result(ad @ bd, (a, b), "matmul", bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    sizes = [t.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._result(np.concatenate([t.data for t in parts], axis=axis),
                          parts, "concat", bw)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1 x D row vector (bias) to every row of an N x D matrix."""
    if x.ndim != 2 or b.shape != (1, x.shape[1]):
        raise ValueError(f"add_rowvec shapes incompatible: {x.shape} + {b.shape}")

    def bw(g):
        if x.requires_grad:
            x._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0, keepdims=True))

    return Tensor._result(x.data + b.data, (x, b), "add_rowvec", bw)


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias (shape C) to a C x H x W map."""
    if x.ndim != 3 or b.shape != (x.shape[0],):
        raise ValueError(f"add_channel_bias shapes incompatible: {x.shape} + {b.shape}")

    def bw(g):
        if x.requires_grad:
            x._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=(1, 2)))

    return Tensor._result(x.data + b.data[:, None, None], (x, b), "add_channel_bias", bw)


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, shape) -> np.ndarray:
    """Zeros of ``shape`` plus each row of ``rows`` (``idx.shape + shape[1:]``)
    added at its row ``idx``. One ``np.bincount`` over flat indices in
    ``idx`` order makes the adds of ``np.add.at``, in its order, from 0.0."""
    if len(shape) == 1:
        return np.bincount(idx.ravel(), rows.ravel(), minlength=shape[0])
    d = math.prod(shape[1:])
    flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, rows.ravel(), minlength=shape[0] * d).reshape(shape)


def gather_rows(t: Tensor, idx) -> Tensor:
    """Select ``t[idx]`` along the first axis of ``t``; the result has shape
    ``idx.shape + t.shape[1:]``. The adjoint is scatter-add."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[0]):
        raise IndexError("gather_rows index out of range")
    a = t

    def bw(g):
        if a.requires_grad:
            a._accumulate(_scatter_rows(idx, g, a.data.shape))

    return Tensor._result(a.data[idx], (a,), "gather_rows", bw)


def scatter_add_rows(t: Tensor, idx, num_rows: int) -> Tensor:
    """Sum rows of ``t`` into an output of ``num_rows`` rows at positions ``idx``."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError("scatter_add_rows index out of range")
    a = t
    out = _scatter_rows(idx, a.data, (num_rows,) + a.shape[1:])

    def bw(g):
        if a.requires_grad:
            a._accumulate(g[idx])

    return Tensor._result(out, (a,), "scatter_add_rows", bw)


# -- detection loss -----------------------------------------------------------

def logistic(x):
    """1 / (1 + exp(-x)) of an array of logits, clipped so exp stays finite."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def bce_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean binary cross entropy of raw logits against 0/1 labels, computed
    as max(x, 0) - x·y + log1p(exp(-|x|)). It stays finite and keeps a
    gradient, (σ(x) - y) / n, at any logit."""
    x = logits.data
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != x.shape:
        raise ValueError(f"bce_with_logits shapes differ: {x.shape} vs {y.shape}")
    # exp(-|x|) underflows to 0 for |x| > ~745, which is its value in float64
    with np.errstate(under="ignore"):
        per = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    def bw(g):
        if logits.requires_grad:
            logits._accumulate(g * (logistic(x) - y) / x.size)

    return Tensor._result(np.asarray(per.mean()), (logits,), "bce_with_logits", bw)


def smooth_l1_sum(pred: Tensor, target) -> Tensor:
    """Sum over every entry of the smooth-L1 penalty of x = pred - target:
    x²/2 where |x| < 1, |x| - 1/2 elsewhere. Its gradient is x inside the
    unit band and sign(x) outside."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError(f"smooth_l1_sum shapes differ: {pred.shape} vs {target.shape}")
    x = pred.data - target
    near = np.abs(x) < 1.0

    def bw(g):
        if pred.requires_grad:
            pred._accumulate(g * np.where(near, x, np.sign(x)))

    penalty = np.where(near, x * x * 0.5, np.abs(x) - 0.5)
    return Tensor._result(np.asarray(penalty.sum()), (pred,), "smooth_l1_sum", bw)


# -- convolution --------------------------------------------------------------

def _conv_out_extent(n: int, k: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - k) // stride + 1


# Columns are laid out (C, kh, kw) down the rows and (Ho, Wo) along the
# columns. The windows are one strided view in that axis order, so the
# reshape to C·kh·kw x Ho·Wo is the only copy, and for a 1 x 1 conv at
# stride 1 without padding it copies nothing: the columns are then a view of
# the input, which the backward pass reads again for the weight grad, so an
# input's ``.data`` must not be written between the forward and the backward
# pass.
def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
            ho: int, wo: int) -> np.ndarray:
    c, h, w = x.shape
    if padding:
        xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
        xp[:, padding:-padding, padding:-padding] = x
        x = xp
    else:
        x = np.ascontiguousarray(x)
    sc, sh, sw = x.strides
    # the ndarray constructor is a much cheaper strided view than as_strided
    windows = np.ndarray((c, kh, kw, ho, wo), x.dtype, x, 0,
                         (sc, sh, sw, sh * stride, sw * stride))
    return windows.reshape(c * kh * kw, ho * wo)


def _col2im(cols: np.ndarray, shape, kh, kw, stride, padding, ho, wo) -> np.ndarray:
    c, h, w = shape
    if kh == kw == 1 and stride == 1 and padding == 0:
        return cols.reshape(c, h, w)
    # zeros plus += even where windows do not overlap, so a -0.0 in the
    # columns reads back as 0.0; the (i, j) order fixes the rounding
    acc = np.zeros((c, h + 2 * padding, w + 2 * padding))
    cols = cols.reshape(c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            acc[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += cols[:, i, j]
    if padding:
        acc = acc[:, padding:-padding, padding:-padding]
    return acc


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution of a C_in x H x W map with C_out x C_in x kh x kw weights.

    The backward pass reads ``weight.data``, and may read ``x.data`` through
    a view (a 1 x 1 conv at stride 1 without padding on a contiguous input):
    nothing may write either between this call and ``backward``."""
    c_out, c_in, kh, kw = weight.shape
    if x.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"conv2d input {x.shape} incompatible with weight {weight.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d kernel extents must be odd")
    if stride < 1:
        raise ValueError("conv2d stride must be >= 1")
    _, h, w = x.shape
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    if ho <= 0 or wo <= 0:
        raise ValueError(f"conv2d output extent non-positive for input {x.shape}")
    cols = _im2col(x.data, kh, kw, stride, padding, ho, wo)
    wmat = weight.data.reshape(c_out, c_in * kh * kw)
    out = (wmat @ cols).reshape(c_out, ho, wo)

    def bw(g):
        g2 = g.reshape(c_out, ho * wo)
        if weight.requires_grad:
            weight._accumulate((g2 @ cols.T).reshape(weight.shape))
        if x.requires_grad:
            if stride == 1 and kh == kw > 1 and padding < kh:
                # transposed conv: correlate g, padded to k-1-padding, with the
                # flipped weights, (C_in, C_out, kh, kw) as a C_in-row matrix
                flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                gcols = _im2col(g, kh, kw, 1, kh - 1 - padding, *x.shape[1:])
                x._accumulate((flipped.reshape(x.shape[0], -1) @ gcols).reshape(x.shape))
            else:
                x._accumulate(_col2im(wmat.T @ g2, x.shape, kh, kw, stride, padding,
                                      ho, wo))

    return Tensor._result(out, (x, weight), "conv2d", bw)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling of a C x H x W map."""
    a = x
    c, h, w = x.shape

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))

    out = np.repeat(np.repeat(a.data, 2, axis=1), 2, axis=2)
    return Tensor._result(out, (a,), "upsample2x", bw)


def bilinear_sample(feature_map: Tensor, uv: np.ndarray) -> Tensor:
    """Sample a C x H x W map at N continuous (u, v) pixel coordinates -> N x C.

    Coordinates outside [0, W-1] x [0, H-1] yield the zero vector. Differentiable
    with respect to the feature map only.
    """
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    c, h, w = feature_map.shape
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
    fm = feature_map.data
    out = (fm[:, v0, u0] * w00 + fm[:, v0, u1] * w01 +
           fm[:, v1, u0] * w10 + fm[:, v1, u1] * w11).T

    def bw(g):
        if feature_map.requires_grad:
            # flat index (corner, sample, channel) -> channel·H·W + pixel: one
            # bincount adds corner-major, then sample, as np.add.at per corner did
            pix = np.stack((v0 * w + u0, v0 * w + u1, v1 * w + u0, v1 * w + u1))
            flat = pix[:, :, None] + np.arange(0, c * h * w, h * w)
            wgt = np.stack((w00, w01, w10, w11))[:, :, None] * g
            acc = np.bincount(flat.ravel(), wgt.ravel(), minlength=c * h * w)
            feature_map._accumulate(acc.reshape(c, h, w))

    return Tensor._result(out, (feature_map,), "bilinear_sample", bw)


# -- optimizer ----------------------------------------------------------------

class Adam:
    """Standard Adam with bias correction, applied in place to f64 parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty(p.shape) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """p -= lr · m̂ / (√v̂ + eps): the operations of that expression in its
        order, each in place or into the parameter's scratch array, except
        for the one array that holds the step."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v, s in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                raise ValueError("Adam.step() called with a parameter missing its grad")
            g = p.grad
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            v += np.multiply(s, g, out=s)
            np.sqrt(np.divide(v, c2, out=s), out=s)
            s += self.eps
            step = m / c1
            step *= self.lr
            step /= s
            p.data -= step


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
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path``; when the block ends without
    an exception, move it onto ``path``. Otherwise the temporary file is
    removed and ``path`` keeps what it held."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_checkpoint(params: dict, path):
    with atomic_write(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<B", _CKPT_VERSION))
        f.write(struct.pack("<I", len(params)))
        for name, t in params.items():
            arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> dict:
    """Parameters saved by ``save_checkpoint``; every length is checked
    against the file size, so a damaged file raises InputError."""
    with open(path, "rb") as f:
        size = f.seek(0, 2)
        f.seek(0)

        def take(nbytes: int) -> bytes:
            if f.tell() + nbytes > size:
                raise InputError(f"{path}: checkpoint truncated at byte {size}")
            return f.read(nbytes)

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
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            data = take(8 * math.prod(shape))
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        if f.tell() != size:
            raise InputError(f"{path}: {size - f.tell()} bytes after the last record")
        return out
