import json
import math
import os
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevfuse import tensor as T
from bevfuse.tensor import (Adam, InputError, Tensor, atomic_write, load_checkpoint,
                            save_checkpoint)


def test_tensor_is_float64():
    t = Tensor(np.array([1, 2, 3], dtype=np.float32))
    assert t.data.dtype == np.float64


def test_add_mul_backward():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
    ((a * b + a) ** 2.0).sum().backward()
    # d/da (ab+a)^2 = 2(ab+a)(b+1), d/db = 2(ab+a)a
    s = a.data * b.data + a.data
    np.testing.assert_allclose(a.grad, 2 * s * (b.data + 1))
    np.testing.assert_allclose(b.grad, 2 * s * a.data)


def test_add_is_elementwise_sum_and_rejects_shape_mismatch():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4))
    np.testing.assert_allclose((Tensor(a) + Tensor(b)).data, a + b)
    with pytest.raises(ValueError):
        Tensor(a) + Tensor(np.zeros((3, 4, 5)))


@pytest.mark.parametrize("op", [Tensor.__add__, Tensor.__mul__, Tensor.__sub__],
                         ids=["add", "mul", "sub"])
def test_one_value_operand_of_higher_rank_is_rejected(op):
    # a 1 x 1 against a (3,) would broadcast to 1 x 3, a shape neither operand
    # can take its grad in: rejected up front, naming both shapes, either way round
    one, three = Tensor([[2.0]], requires_grad=True), Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with pytest.raises(ValueError, match=r"\(1, 1\) vs \(3,\)"):
        op(one, three)
    with pytest.raises(ValueError, match=r"\(3,\) vs \(1, 1\)"):
        op(three, one)
    # a one-value operand of no higher rank still broadcasts and sums its grad
    op(Tensor([2.0], requires_grad=True), three).sum().backward()
    assert three.grad.shape == (3,)


def test_scalar_ops_and_div():
    a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
    y = (a / 2.0 + 1.0) * 3.0 - 1.0
    np.testing.assert_allclose(y.data, [5.0, 8.0])
    y.sum().backward()
    np.testing.assert_allclose(a.grad, [1.5, 1.5])
    # a 1 x 1 times a (1,) broadcasts to 1 x 1: each takes its grad in its own shape
    p, q = Tensor([[3.0]], requires_grad=True), Tensor([2.0], requires_grad=True)
    (p * q).sum().backward()
    assert p.grad.tolist() == [[2.0]] and q.grad.tolist() == [3.0]
    # a 0-d operand broadcast over a vector takes the sum of its grad, bitwise
    v = np.array([0.1, -2.3, 7.7, 1e-3])
    w = np.array([0.3, 1.9, -0.7, 5.0])
    for op, g in ((Tensor.__add__, w), (Tensor.__mul__, w * v)):
        s = Tensor(1.5, requires_grad=True)
        (op(Tensor(v, requires_grad=True), s) * Tensor(w)).sum().backward()
        assert s.grad.shape == () and s.grad.tobytes() == g.sum().tobytes()
    # a Python number in mul is a constant: it takes no grad
    y = a * 3.0
    const = y._node.parents[1]
    y.sum().backward()
    assert const.grad is None


def test_relu_values():
    a = Tensor(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_allclose(a.relu().data, [0.0, 0.0, 2.0])


def _sigmoid_reference(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    return math.exp(x) / (1.0 + math.exp(x))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0])),
                min_size=1, max_size=8))
def test_bce_with_logits_matches_log1p_reference(pairs):
    x, y = (np.array(c) for c in zip(*pairs))
    per = [max(xi, 0.0) - xi * yi + math.log1p(math.exp(-abs(xi))) for xi, yi in pairs]
    logits = Tensor(x, requires_grad=True)
    loss = T.bce_with_logits(logits, y)
    assert loss.item() == pytest.approx(math.fsum(per) / len(per), rel=1e-12, abs=1e-300)
    loss.backward()
    expected = [(_sigmoid_reference(xi) - yi) / len(per) for xi, yi in pairs]
    np.testing.assert_allclose(logits.grad, expected, rtol=1e-9, atol=1e-15)


def test_bce_with_logits_of_no_logits_is_zero_on_the_tape():
    logits = Tensor(np.zeros(0), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = T.bce_with_logits(logits, np.zeros(0))
        loss.backward()
    assert loss.item() == 0.0 and loss.requires_grad
    assert logits.grad.shape == (0,)


def _composite_smooth_l1(pred: Tensor, target: np.ndarray) -> Tensor:
    """The smooth-L1 penalty sum as it was once built from elementwise tape
    ops; |x| is x times the constant sign(x), which has abs's value and
    gradient."""
    x = pred - Tensor(target)
    ax = x * Tensor(np.sign(x.data))
    near = (np.abs(x.data) < 1.0).astype(np.float64)
    return (Tensor(near) * (x * x * 0.5) + Tensor(1.0 - near) * (ax - 0.5)).sum()


def test_smooth_l1_sum_matches_composite_bitwise():
    rng = np.random.default_rng(8)
    for trial in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        # half-integer targets make pred - target exactly 0 or ±1 at the kink
        target = rng.integers(-4, 5, shape) * 0.5 if trial % 2 else \
            rng.uniform(-2.0, 2.0, shape)
        kink = rng.choice([0.0, 1.0, -1.0, np.nextafter(1.0, 0.0)], shape)
        offsets = np.where(rng.random(shape) < 0.5, kink, rng.uniform(-4.0, 4.0, shape))
        pred_data = target + offsets
        n = float(shape[0])
        grads, values = [], []
        for loss_of in (T.smooth_l1_sum, _composite_smooth_l1):
            pred = Tensor(pred_data.copy(), requires_grad=True)
            loss = loss_of(pred, target) / n
            loss.backward()
            values.append(loss.data.tobytes())
            grads.append(pred.grad.tobytes())
        assert values[0] == values[1]
        assert grads[0] == grads[1]


def test_matmul_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    out = T.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b)


def test_concat_axis1():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.zeros((2, 3)))            # constant, as the fusion offsets are
    out = T.concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
    assert b.grad is None


def test_gather_scatter_inverse_mass():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([1, 1, 3])
    g = T.gather_rows(x, idx)
    s = T.scatter_add_rows(g, idx, 4)
    np.testing.assert_allclose(s.data[1], 2 * x.data[1])
    np.testing.assert_allclose(s.data[0], 0.0)
    np.testing.assert_allclose(s.data[3], x.data[3])


def test_conv2d_matches_naive():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6, 7))
    w = rng.standard_normal((3, 2, 3, 3))
    for stride, padding in ((1, 0), (1, 1), (2, 1)):
        out = T.conv2d(Tensor(x[None]), Tensor(w), stride=stride, padding=padding).data
        xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
        ho = (x.shape[1] + 2 * padding - 3) // stride + 1
        wo = (x.shape[2] + 2 * padding - 3) // stride + 1
        ref = np.zeros((3, ho, wo))
        for co in range(3):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[:, i * stride:i * stride + 3, j * stride:j * stride + 3]
                    ref[co, i, j] = (patch * w[co]).sum()
        np.testing.assert_allclose(out, ref[None], atol=1e-12)


def _im2col_reference(x, kh, kw, stride, padding):
    """Reference column kernel: np.pad, then sliding_window_view and a
    transposing reshape. Like ``_im2col`` it windows a C-ordered input, so
    the columns have its memory layout: BLAS picks its kernel, and so its
    summation order, by operand layout."""
    c = x.shape[0]
    x = np.pad(x, ((0, 0), (padding, padding), (padding, padding))) if padding \
        else np.ascontiguousarray(x)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    ho, wo = windows.shape[1], windows.shape[2]
    return windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, ho * wo), ho, wo


def _col2im_reference(cols, shape, kh, kw, stride, padding, ho, wo):
    """Adjoint of ``_im2col_reference``: the (i, j) loop of += into zeros."""
    c, h, w = shape
    acc = np.zeros((c, h + 2 * padding, w + 2 * padding))
    cols = cols.reshape(c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            acc[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += cols[:, i, j]
    if padding:
        acc = acc[:, padding:-padding, padding:-padding]
    return acc


def _same_bytes(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype and
            np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _with_signed_zeros(rng, shape):
    """Normal draws with a quarter of the entries replaced by 0.0 or -0.0."""
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.25] = 0.0
    v[rng.random(shape) < 0.25] = -0.0
    return v


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 3, 5]), st.integers(1, 3), st.integers(0, 5),
       st.integers(1, 4), st.integers(1, 9), st.integers(1, 9), st.booleans(),
       st.integers(0, 2**32 - 1))
# one-pixel-wide columns are a view of the padded map, which a kept copy
# would lay out, and so sum, differently
@example(k=5, stride=1, padding=2, c=1, h=3, w=1, contiguous=False, seed=0)
def test_conv2d_data_path_is_bit_identical_to_reference_kernels(k, stride, padding, c, h, w,
                                                               contiguous, seed):
    if h + 2 * padding < k or w + 2 * padding < k:
        return
    rng = np.random.default_rng(seed)
    x = _with_signed_zeros(rng, (c, h, w) if contiguous else (h, w, c))
    if not contiguous:
        x = x.transpose(2, 0, 1)
    xb = x[None]                # the ops take the map as a batch of one
    ho, wo = T._conv_out_extent(h, k, stride, padding), T._conv_out_extent(w, k, stride, padding)
    ref_cols, ref_ho, ref_wo = _im2col_reference(x, k, k, stride, padding)
    assert (ho, wo) == (ref_ho, ref_wo)
    assert _same_bytes(T._im2col(xb, k, k, stride, padding, ho, wo), ref_cols)

    gcols = _with_signed_zeros(rng, ref_cols.shape)
    gx = T._col2im(gcols, xb.shape, k, k, stride, padding, ho, wo)
    assert _same_bytes(gx, _col2im_reference(gcols, x.shape, k, k, stride, padding, ho,
                                             wo)[None])

    # conv2d through the tape against a conv assembled from the reference kernels
    c_out = 3
    wgt = _with_signed_zeros(rng, (c_out, c, k, k))
    g = _with_signed_zeros(rng, (c_out, ho, wo))
    xt, wt = Tensor(xb, requires_grad=True), Tensor(wgt, requires_grad=True)
    out = T.conv2d(xt, wt, stride=stride, padding=padding)
    (out * Tensor(g[None])).sum().backward()
    wmat = wgt.reshape(c_out, -1)
    g2 = g.reshape(c_out, -1)
    assert _same_bytes(out.data, (wmat @ ref_cols).reshape(1, c_out, ho, wo))
    assert _same_bytes(wt.grad, np.zeros(wgt.shape) + (g2 @ ref_cols.T).reshape(wgt.shape))
    ref_gx = np.zeros(xb.shape) + _col2im_reference(wmat.T @ g2, x.shape, k, k, stride,
                                                    padding, ho, wo)
    if stride == 1 and k > 1 and padding < k:
        # the transposed conv sums the same n products in another order
        n = c_out * k * k
        magnitude = _col2im_reference(np.abs(wmat).T @ np.abs(g2), x.shape, k, k, stride,
                                      padding, ho, wo)
        assert xt.grad.shape == xb.shape
        assert (np.abs(xt.grad - ref_gx) <= 2 * n * np.finfo(float).eps * magnitude).all()
    else:
        assert _same_bytes(xt.grad, ref_gx)


def _conv1x1_input_grad_reshape(wgt, g):
    """The input grad of a 1 x 1 stride-1 conv as a reshape of ``wmat.T @ g2``,
    the rule ``_col2im`` once kept for that case, added to zeros."""
    n, c_out, h, w = g.shape
    g2 = g.transpose(1, 0, 2, 3).reshape(c_out, n * h * w)
    cols = wgt.reshape(c_out, -1).T @ g2
    return np.zeros((n, wgt.shape[1], h, w)) + cols.reshape(-1, n, h, w).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("n", [1, 4])
def test_conv2d_1x1_stride1_input_grad_matches_reshape_rule(n):
    rng = np.random.default_rng(n)
    x = Tensor(_with_signed_zeros(rng, (n, 5, 6, 7)), requires_grad=True)
    wgt = _with_signed_zeros(rng, (3, 5, 1, 1))
    g = _with_signed_zeros(rng, (n, 3, 6, 7))
    (T.conv2d(x, Tensor(wgt)) * Tensor(g)).sum().backward()
    assert _same_bytes(x.grad, _conv1x1_input_grad_reshape(wgt, g))


def _bilinear_grad_reference(shape, uv, g):
    """The sampler's adjoint as four ``np.add.at`` scatters, one per corner."""
    c, h, w = shape
    u, v = uv[:, 0], uv[:, 1]
    inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc, vc = np.clip(u, 0, w - 1), np.clip(v, 0, h - 1)
    u0 = np.minimum(np.floor(uc), w - 2 if w > 1 else 0).astype(np.intp)
    v0 = np.minimum(np.floor(vc), h - 2 if h > 1 else 0).astype(np.intp)
    u1, v1 = np.minimum(u0 + 1, w - 1), np.minimum(v0 + 1, h - 1)
    du, dv = uc - u0, vc - v0
    acc = np.zeros(shape)
    for wgt, vv, uu in (((1 - du) * (1 - dv) * inside, v0, u0),
                        (du * (1 - dv) * inside, v0, u1),
                        ((1 - du) * dv * inside, v1, u0),
                        (du * dv * inside, v1, u1)):
        np.add.at(acc.transpose(1, 2, 0), (vv, uu), (g.T * wgt).T)
    return acc


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 40),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_scatter_kernels_match_add_at_bitwise(c, h, w, n, d, seed):
    rng = np.random.default_rng(seed)
    # six distinct points on a small map, so pixels take adds from several
    # corners; some sit on pixel centres and some fall off the map
    points = rng.uniform(-0.5, [w - 0.5, h - 0.5], (6, 2))
    points[:2] = np.round(points[:2])
    uv = points[rng.integers(0, 6, n)]
    fm = Tensor(_with_signed_zeros(rng, (1, c, h, w)), requires_grad=True)
    g = _with_signed_zeros(rng, (n, c))
    (T.bilinear_sample(fm, uv) * Tensor(g)).sum().backward()
    assert _same_bytes(fm.grad, _bilinear_grad_reference((c, h, w), uv, g)[None])

    rows = int(rng.integers(1, 5))
    idx = rng.integers(0, rows, n)
    t = Tensor(_with_signed_zeros(rng, (n, d)))
    ref = np.zeros((rows, d))
    np.add.at(ref, idx, t.data)
    assert _same_bytes(T.scatter_add_rows(t, idx, rows).data, ref)

    for shape in ((rows,), (rows, d)):          # a flat target, and one with rows
        src = Tensor(np.zeros(shape), requires_grad=True)
        idx2 = rng.integers(0, rows, (n, 2))
        g2 = _with_signed_zeros(rng, idx2.shape + shape[1:])
        (T.gather_rows(src, idx2) * Tensor(g2)).sum().backward()
        ref = np.zeros(shape)
        np.add.at(ref, idx2, g2)
        assert _same_bytes(src.grad, ref)


def test_tape_frees_an_intermediate_no_caller_holds():
    # the tape holds nodes and the arrays each backward reads, never a
    # Tensor: an op output nobody holds is freed before backward runs
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    mid = x * 2.0
    out = (mid.relu() * 3.0).sum()
    mid_data = weakref.ref(mid.data)
    del mid
    assert mid_data() is None
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 6.0, 6.0])
    # the leaf API: .grad is settable and writable in place, and an operand
    # with requires_grad False stays without a grad
    x.grad = None
    const = Tensor(np.full(3, 3.0))
    (x * const).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])
    x.grad[1] = 0.0
    (x * const).sum().backward()
    np.testing.assert_array_equal(x.grad, [6.0, 3.0, 6.0])
    assert const.grad is None and not const.requires_grad


def test_add_gives_each_parent_its_own_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a + b).sum().backward()
    a.grad[0] = 5.0
    np.testing.assert_array_equal(b.grad, np.ones(3))
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    (x + x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_conv2d_rejects_even_kernel():
    with pytest.raises(ValueError):
        T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))


def test_map_ops_reject_a_map_without_its_batch_axis():
    fm = Tensor(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError, match="N x C x H x W"):
        T.conv2d(fm, Tensor(np.zeros((1, 2, 3, 3))), padding=1)
    with pytest.raises(ValueError, match="N x C x H x W"):
        T.add_channel_bias(fm, Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="N x C x H x W"):
        T.bilinear_sample(fm, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="N x C x H x W"):
        T.upsample2x(fm)


def test_upsample2x_values():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    out = T.upsample2x(x).data
    np.testing.assert_allclose(out[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                        [3, 3, 4, 4], [3, 3, 4, 4]])


def test_bilinear_sample_known_values():
    fm = Tensor(np.arange(12.0).reshape(1, 1, 3, 4))
    uv = np.array([[0.0, 0.0], [1.5, 0.5], [3.0, 2.0], [-5.0, 0.0], [3.5, 1.0]])
    out = T.bilinear_sample(fm, uv).data[:, 0]
    # (1.5, 0.5): average of cells (0,1),(0,2),(1,1),(1,2) = (1+2+5+6)/4
    np.testing.assert_allclose(out, [0.0, 3.5, 11.0, 0.0, 0.0])


def test_matmul_bias_and_channel_bias():
    rng = np.random.default_rng(6)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = T.matmul(a, w, b)
    np.testing.assert_allclose(out.data, a.data @ w.data + [1.0, 2.0])
    g = rng.standard_normal((5, 2))
    (out * Tensor(g)).sum().backward()
    np.testing.assert_allclose(b.grad, g.sum(axis=0, keepdims=True))     # column sums
    np.testing.assert_allclose(a.grad, g @ w.data.T)
    np.testing.assert_allclose(w.grad, a.data.T @ g)
    for shape in ((2,), (1, 3), (5, 2), (2, 1)):
        with pytest.raises(ValueError, match="bias"):
            T.matmul(a, w, Tensor(np.zeros(shape)))
    # a constant operand of matmul or conv2d takes no grad
    const, w.grad = Tensor(a.data), None
    T.matmul(const, w).sum().backward()
    np.testing.assert_array_equal(w.grad, const.data.T @ np.ones((5, 2)))
    assert const.grad is None
    x, k = Tensor(rng.standard_normal((1, 2, 4, 4))), Tensor(np.ones((3, 2, 3, 3)),
                                                            requires_grad=True)
    T.conv2d(x, k, padding=1).sum().backward()
    assert x.grad is None and k.grad.shape == (3, 2, 3, 3)
    fm = Tensor(np.zeros((1, 2, 2, 2)))
    cb = Tensor(np.array([5.0, 7.0]))
    out = T.add_channel_bias(fm, cb).data
    assert (out[:, 0] == 5.0).all() and (out[:, 1] == 7.0).all()


def test_reshape_transpose_backward():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (x.reshape(3, 2).transpose((1, 0)) * 2.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3), 2.0))


def test_backward_frees_tape():
    a = Tensor(np.ones(3), requires_grad=True)
    y = (a * 2.0).sum()
    y.backward()
    assert y._node.parents == () and y._backward is None
    # re-running is a no-op on the freed tape: leaf grads do not double
    g = a.grad.copy()
    y.backward()
    np.testing.assert_array_equal(a.grad, g)


def test_adam_matches_reference_step():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, -0.5])
    opt.step()
    # first bias-corrected step is lr * sign(grad) up to eps
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5 / (0.5 + 1e-8),
                                        -2.0 + 0.1 * 0.5 / (0.5 + 1e-8)])


def test_adam_matches_plain_expression_bitwise():
    rng = np.random.default_rng(6)
    # the last two span chunk boundaries, and the parameters span three chunks
    shapes = [(3, 2, 3, 3), (5,), (4, 7), (Adam.CHUNK + 3,), (3, Adam.CHUNK // 2 + 1)]
    assert sum(math.prod(s) for s in shapes) > 2 * Adam.CHUNK
    params = [Tensor(_with_signed_zeros(rng, s), requires_grad=True) for s in shapes]
    opt = Adam(params, lr=0.01, betas=(0.8, 0.95), eps=1e-6)
    ref = [p.data.copy() for p in params]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    b1, b2 = 0.8, 0.95
    for t in range(1, 6):
        opt.zero_grad()
        scales = [10.0 ** rng.integers(-8, 3) for _ in shapes]
        # every grad but the second comes from backward; that one is set by hand
        loss = sum((p * Tensor(_with_signed_zeros(rng, p.shape) * k)).sum()
                   for i, (p, k) in enumerate(zip(params, scales)) if i != 1)
        loss.backward()
        params[1].grad = _with_signed_zeros(rng, shapes[1]) * scales[1]
        grads = [p.grad.copy() for p in params]
        opt.step()
        for i, g in enumerate(grads):
            ms[i] = ms[i] * b1 + (1 - b1) * g
            vs[i] = vs[i] * b2 + (1 - b2) * g * g
            mhat = ms[i] / (1 - b1 ** t)
            vhat = vs[i] / (1 - b2 ** t)
            ref[i] = ref[i] - 0.01 * mhat / (np.sqrt(vhat) + 1e-6)
        for p, r in zip(params, ref):
            assert _same_bytes(p.data, r)


def test_backward_after_zero_grad_overwrites_the_same_grad_arrays():
    rng = np.random.default_rng(7)
    w0, x0 = rng.standard_normal((4, 3)), rng.standard_normal((5, 4))
    w = Tensor(w0.copy(), requires_grad=True)
    opt = Adam([w])
    assert np.shares_memory(w.data, opt.flat) and _same_bytes(w.data, w0)
    (T.matmul(Tensor(x0), w) * 2.0).sum().backward()
    first = w.grad
    opt.zero_grad()
    assert w.grad is None
    T.matmul(Tensor(x0 ** 2), w).relu().sum().backward()
    assert w.grad is first
    fresh = Tensor(w0.copy(), requires_grad=True)
    T.matmul(Tensor(x0 ** 2), fresh).relu().sum().backward()
    assert _same_bytes(w.grad, fresh.grad)
    # a parameter belongs to one Adam, once
    with pytest.raises(ValueError, match="one Adam"):
        Adam([w])
    with pytest.raises(ValueError, match="one Adam"):
        Adam([fresh, fresh])


def _conv_weight_grad_reference(x, g, kh, stride, padding):
    """The weight grad of a conv with output grad ``g``, scene by scene."""
    return sum((gs.reshape(gs.shape[0], -1)
                @ _im2col_reference(xs, kh, kh, stride, padding)[0].T)
               for xs, gs in zip(x, g)).reshape(g.shape[1], x.shape[1], kh, kh)


def test_two_live_tapes_through_one_conv_keep_their_own_columns():
    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal((3, 3, 3, 3)), requires_grad=True)
    x1, x2 = rng.standard_normal((2, 2, 3, 6, 7))
    g1, g2 = rng.standard_normal((2, 2, 3, 6, 7))

    def tape(x, g):
        xt = Tensor(x, requires_grad=True)
        return xt, (T.conv2d(xt, w, 1, 1) * Tensor(g)).sum()

    # each tape alone first: the reference input grads
    ref_gx = []
    for x, g in ((x1, g1), (x2, g2)):
        xt, loss = tape(x, g)
        loss.backward()
        ref_gx.append(xt.grad)
    w.grad = None
    (t1, loss1), (t2, loss2) = tape(x1, g1), tape(x2, g2)
    (loss1 + loss2).backward()
    ref = (_conv_weight_grad_reference(x1, g1, 3, 1, 1)
           + _conv_weight_grad_reference(x2, g2, 3, 1, 1))
    np.testing.assert_allclose(w.grad, ref, rtol=1e-12, atol=1e-12)
    assert _same_bytes(t1.grad, ref_gx[0]) and _same_bytes(t2.grad, ref_gx[1])


def test_a_tape_dropped_without_backward_leaves_the_next_grads_alone():
    rng = np.random.default_rng(9)
    w0 = rng.standard_normal((4, 3, 3, 3))
    x, x_dropped = rng.standard_normal((2, 2, 3, 8, 8))
    g = rng.standard_normal((2, 4, 4, 4))

    def step_grad(w, drop_first):
        if drop_first:
            (T.conv2d(Tensor(x_dropped), w, 2, 1) * 5.0).sum()      # never backpropagated
        (T.conv2d(Tensor(x), w, 2, 1) * Tensor(g)).sum().backward()
        return w.grad

    w = Tensor(w0, requires_grad=True)
    with T.no_grad():
        T.conv2d(Tensor(x), w, 2, 1)
    opt = Adam([w])
    first = step_grad(w, True).copy()
    opt.zero_grad()
    assert _same_bytes(step_grad(w, True), first)
    assert _same_bytes(first, step_grad(Tensor(w0, requires_grad=True), False))


def _conv_step(w, x, g, stride=1, padding=1):
    """One forward and backward pass of ``conv2d`` with output grad ``g``:
    the weight grad and the input grad."""
    xt = Tensor(x, requires_grad=True)
    (T.conv2d(xt, w, stride, padding) * Tensor(g)).sum().backward()
    return w.grad, xt.grad


def test_a_weights_grads_match_a_fresh_weights_as_the_batch_size_changes():
    rng = np.random.default_rng(11)
    w0 = rng.standard_normal((3, 3, 3, 3))
    w = Tensor(w0.copy(), requires_grad=True)
    for n in (4, 1, 4, 4):
        x, g = rng.standard_normal((n, 3, 5, 6)), rng.standard_normal((n, 3, 5, 6))
        w.grad = None
        grads = _conv_step(w, x, g)
        fresh = _conv_step(Tensor(w0.copy(), requires_grad=True), x, g)
        assert all(_same_bytes(a, b) for a, b in zip(grads, fresh))


# unpadded contiguous inputs whose columns reshape as a view: (x shape, k, stride)
_VIEW_CASES = [((1, 3, 4, 5), 1, 1), ((1, 3, 5, 1), 1, 2), ((1, 3, 1, 5), 1, 1),
               ((1, 3, 1, 5), 1, 2), ((2, 3, 1, 1), 1, 1), ((1, 1, 3, 3), 3, 1)]


@pytest.mark.parametrize("shape,k,stride", _VIEW_CASES)
def test_view_columns_read_the_input_and_give_the_reference_weight_grad(shape, k, stride):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(shape)
    ho, wo = (T._conv_out_extent(e, k, stride, 0) for e in shape[2:])
    assert np.shares_memory(T._im2col(x, k, k, stride, 0, ho, wo), x)
    w = Tensor(rng.standard_normal((2, shape[1], k, k)), requires_grad=True)
    g = rng.standard_normal((shape[0], 2, ho, wo))
    w_grad, _ = _conv_step(w, x, g, stride, 0)
    np.testing.assert_allclose(w_grad, _conv_weight_grad_reference(x, g, k, stride, 0),
                               rtol=1e-12, atol=1e-12)


def _adam_conv_steps(monkeypatch, cdll):
    """The weights after 3 Adam steps on a conv, with ``cdll`` as ``ctypes.CDLL``."""
    monkeypatch.setattr(T, "ctypes", SimpleNamespace(CDLL=cdll))
    rng = np.random.default_rng(13)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    x = rng.standard_normal((2, 3, 6, 6))
    opt = Adam([w], lr=0.01)
    for _ in range(3):
        opt.zero_grad()
        (T.conv2d(Tensor(x), w, 1, 1) ** 2.0).sum().backward()
        opt.step()
    return w.data.copy()


def test_building_an_adam_asks_malloc_to_keep_freed_memory(monkeypatch):
    calls = []

    def libc(name):
        assert name is None                     # the process's own C library
        return SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))

    trained = _adam_conv_steps(monkeypatch, libc)
    # M_TRIM_THRESHOLD to 1 GiB, M_MMAP_THRESHOLD to 32 MiB
    assert calls == [(-1, 1 << 30), (-3, 32 << 20)]

    def no_library(name):
        raise OSError("no C library")

    # no C library, or one without mallopt: Adam trains all the same
    for cdll in (no_library, lambda name: SimpleNamespace()):
        assert _same_bytes(_adam_conv_steps(monkeypatch, cdll), trained)


def test_adam_raises_on_missing_grad():
    p = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([p])
    with pytest.raises(ValueError):
        opt.step()


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    params = {"a.weight": Tensor(rng.standard_normal((3, 4))),
              "b.bias": Tensor(rng.standard_normal(5))}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert set(loaded) == {"a.weight", "b.bias"}
    for k in params:
        np.testing.assert_array_equal(loaded[k], params[k].data)


@pytest.mark.parametrize("shape", [(), (0, 3), (2, 3)])
def test_checkpoint_record_round_trips_into_a_plain_array(tmp_path, shape):
    saved = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) - 0.5
    path = tmp_path / "ckpt.bin"
    save_checkpoint({"w": Tensor(saved)}, path)
    loaded = load_checkpoint(path)["w"]
    assert loaded.shape == shape and loaded.dtype == np.dtype("<f8")
    flags = loaded.flags
    assert flags.writeable and flags.aligned and flags.c_contiguous
    np.testing.assert_array_equal(loaded, saved)


def test_checkpoint_bytes_deterministic(tmp_path):
    params = {"w": Tensor(np.arange(4.0))}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(params, p1)
    save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == b"BFCK"


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    ckpt = tmp_path / "ckpt.bin"
    save_checkpoint({"w": Tensor(np.ones(3))}, ckpt)
    before = ckpt.read_bytes()
    with pytest.raises(ValueError):           # "w" is written before "bad" fails
        save_checkpoint({"w": Tensor(np.zeros(3)), "bad": "not a number"}, ckpt)
    assert ckpt.read_bytes() == before
    report = tmp_path / "report.json"
    with atomic_write(report) as f:
        json.dump({"ap": 1.0}, f)
    with pytest.raises(TypeError):
        with atomic_write(report) as f:
            json.dump({"ap": 0.5, "curve": object()}, f)
    assert json.loads(report.read_text()) == {"ap": 1.0}
    assert sorted(os.listdir(tmp_path)) == ["ckpt.bin", "report.json"]


def test_checkpoint_truncated_at_a_record_boundary_is_input_error(tmp_path):
    params = {"a": Tensor(np.ones((2, 3))), "bb": Tensor(np.zeros(4)), "c": Tensor(np.ones(()))}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    ends = [9]                              # magic, version and record count
    for name, t in params.items():
        ends.append(ends[-1] + 2 + len(name) + 1 + 4 * t.ndim + 8 * t.size)
    assert ends[-1] == len(raw)
    for end in ends[:-1]:
        path.write_bytes(raw[:end])
        with pytest.raises(InputError, match="truncated"):
            load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)
