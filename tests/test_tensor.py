import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevfuse import tensor as T
from bevfuse.tensor import Adam, Tensor, atomic_write, load_checkpoint, save_checkpoint


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


def test_scalar_ops_and_div():
    a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
    y = (a / 2.0 + 1.0) * 3.0 - 1.0
    np.testing.assert_allclose(y.data, [5.0, 8.0])
    y.sum().backward()
    np.testing.assert_allclose(a.grad, [1.5, 1.5])


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
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.zeros((2, 3)))
    assert T.concat([a, b], axis=1).shape == (2, 5)


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
        out = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
        ho = (x.shape[1] + 2 * padding - 3) // stride + 1
        wo = (x.shape[2] + 2 * padding - 3) // stride + 1
        ref = np.zeros((3, ho, wo))
        for co in range(3):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[:, i * stride:i * stride + 3, j * stride:j * stride + 3]
                    ref[co, i, j] = (patch * w[co]).sum()
        np.testing.assert_allclose(out, ref, atol=1e-12)


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
def test_conv2d_data_path_is_bit_identical_to_reference_kernels(k, stride, padding, c, h, w,
                                                               contiguous, seed):
    if h + 2 * padding < k or w + 2 * padding < k:
        return
    rng = np.random.default_rng(seed)
    x = _with_signed_zeros(rng, (c, h, w) if contiguous else (h, w, c))
    if not contiguous:
        x = x.transpose(2, 0, 1)
    ho, wo = T._conv_out_extent(h, k, stride, padding), T._conv_out_extent(w, k, stride, padding)
    ref_cols, ref_ho, ref_wo = _im2col_reference(x, k, k, stride, padding)
    assert (ho, wo) == (ref_ho, ref_wo)
    assert _same_bytes(T._im2col(x, k, k, stride, padding, ho, wo), ref_cols)

    gcols = _with_signed_zeros(rng, ref_cols.shape)
    gx = T._col2im(gcols, x.shape, k, k, stride, padding, ho, wo)
    if k == 1 and stride == 1 and padding == 0:
        gx = gx + 0.0   # a view keeps -0.0; the grad adds it to zeros like this
    assert _same_bytes(gx, _col2im_reference(gcols, x.shape, k, k, stride, padding, ho, wo))

    # conv2d through the tape against a conv assembled from the reference kernels
    c_out = 3
    wgt = _with_signed_zeros(rng, (c_out, c, k, k))
    g = _with_signed_zeros(rng, (c_out, ho, wo))
    xt, wt = Tensor(x, requires_grad=True), Tensor(wgt, requires_grad=True)
    out = T.conv2d(xt, wt, stride=stride, padding=padding)
    (out * Tensor(g)).sum().backward()
    wmat = wgt.reshape(c_out, -1)
    g2 = g.reshape(c_out, -1)
    assert _same_bytes(out.data, (wmat @ ref_cols).reshape(c_out, ho, wo))
    assert _same_bytes(wt.grad, np.zeros(wgt.shape) + (g2 @ ref_cols.T).reshape(wgt.shape))
    ref_gx = np.zeros(x.shape) + _col2im_reference(wmat.T @ g2, x.shape, k, k, stride,
                                                   padding, ho, wo)
    if stride == 1 and k > 1 and padding < k:
        # the transposed conv sums the same n products in another order
        n = c_out * k * k
        magnitude = _col2im_reference(np.abs(wmat).T @ np.abs(g2), x.shape, k, k, stride,
                                      padding, ho, wo)
        assert xt.grad.shape == x.shape
        assert (np.abs(xt.grad - ref_gx) <= 2 * n * np.finfo(float).eps * magnitude).all()
    else:
        assert _same_bytes(xt.grad, ref_gx)


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
    fm = Tensor(_with_signed_zeros(rng, (c, h, w)), requires_grad=True)
    g = _with_signed_zeros(rng, (n, c))
    (T.bilinear_sample(fm, uv) * Tensor(g)).sum().backward()
    assert _same_bytes(fm.grad, _bilinear_grad_reference((c, h, w), uv, g))

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
        T.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))


def test_upsample2x_values():
    x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = T.upsample2x(x).data
    np.testing.assert_allclose(out[0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                        [3, 3, 4, 4], [3, 3, 4, 4]])


def test_bilinear_sample_known_values():
    fm = Tensor(np.arange(12.0).reshape(1, 3, 4))
    uv = np.array([[0.0, 0.0], [1.5, 0.5], [3.0, 2.0], [-5.0, 0.0], [3.5, 1.0]])
    out = T.bilinear_sample(fm, uv).data[:, 0]
    # (1.5, 0.5): average of cells (0,1),(0,2),(1,1),(1,2) = (1+2+5+6)/4
    np.testing.assert_allclose(out, [0.0, 3.5, 11.0, 0.0, 0.0])


def test_add_rowvec_and_channel_bias():
    x = Tensor(np.zeros((3, 2)))
    b = Tensor(np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(T.add_rowvec(x, b).data, np.tile([1.0, 2.0], (3, 1)))
    fm = Tensor(np.zeros((2, 2, 2)))
    cb = Tensor(np.array([5.0, 7.0]))
    out = T.add_channel_bias(fm, cb).data
    assert (out[0] == 5.0).all() and (out[1] == 7.0).all()


def test_reshape_transpose_backward():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (x.reshape(3, 2).transpose((1, 0)) * 2.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3), 2.0))


def test_backward_frees_tape():
    a = Tensor(np.ones(3), requires_grad=True)
    y = (a * 2.0).sum()
    y.backward()
    assert y._parents == () and y._backward is None
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
    shapes = [(3, 2, 3, 3), (5,), (4, 7)]
    params = [Tensor(_with_signed_zeros(rng, s), requires_grad=True) for s in shapes]
    opt = Adam(params, lr=0.01, betas=(0.8, 0.95), eps=1e-6)
    ref = [p.data.copy() for p in params]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    b1, b2 = 0.8, 0.95
    for t in range(1, 6):
        grads = [_with_signed_zeros(rng, s) * 10.0 ** rng.integers(-8, 3) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            ms[i] = ms[i] * b1 + (1 - b1) * g
            vs[i] = vs[i] * b2 + (1 - b2) * g * g
            mhat = ms[i] / (1 - b1 ** t)
            vhat = vs[i] / (1 - b2 ** t)
            ref[i] = ref[i] - 0.01 * mhat / (np.sqrt(vhat) + 1e-6)
        for p, r in zip(params, ref):
            assert _same_bytes(p.data, r)


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


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)
