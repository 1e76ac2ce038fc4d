import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import rdteunet.eulerff as ef
import rdteunet.nn as nn
import rdteunet.stairconv as sc
import rdteunet.tensor as T
from rdteunet.tensor import ConfigError, ParamStore, ShapeError, Tape, Tensor, gradcheck


def rt(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.standard_normal(shape)).astype(T.default_dtype()))


# ---------------------------------------------------------------------------
# conv2d

def test_conv1x1_channel_identity():
    x = rt((1, 4, 4, 3), seed=1)
    w = Tensor(np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3))
    b = T.zeros((3,))
    y = nn.conv2d(x, w, b)
    assert np.allclose(y.data, x.data)


def test_conv3x3_ones_center_value():
    # all-ones 5x5 input, all-ones 3x3 kernel, symmetric pad 1:
    # interior pixels see the full 3x3 window of ones -> 9
    x = Tensor(np.ones((1, 5, 5, 1), dtype=np.float32))
    w = Tensor(np.ones((3, 3, 1, 1), dtype=np.float32))
    y = nn.conv2d(x, w, pad=(1, 1, 1, 1))
    assert y.shape == (1, 5, 5, 1)
    assert y.data[0, 2, 2, 0] == 9.0
    assert y.data[0, 0, 0, 0] == 4.0  # corner window


def test_conv_stride2_extents():
    x = rt((1, 8, 8, 2))
    w = rt((2, 2, 2, 4))
    y = nn.conv2d(x, w, stride=2)
    assert y.shape == (1, 4, 4, 4)


@pytest.mark.parametrize("stride", [0, -1])
def test_conv_rejects_stride_below_one(stride):
    with pytest.raises(ConfigError, match="stride"):
        nn.conv2d(rt((1, 4, 4, 1)), rt((3, 3, 1, 1)), stride=stride)
    with pytest.raises(ConfigError, match="stride"):
        nn.Conv2d(ParamStore(0), "c", 1, 1, 3, stride=stride)


def test_conv_output_extent_error():
    with pytest.raises(ShapeError):
        nn.conv2d(rt((1, 2, 2, 1)), rt((3, 3, 1, 1)))


def test_conv_asymmetric_pad_matches_manual():
    x = rt((1, 3, 4, 1), seed=3)
    w = rt((2, 2, 1, 1), seed=4)
    y = nn.conv2d(x, w, pad=(1, 0, 0, 2))
    xp = np.pad(x.data, ((0, 0), (1, 0), (0, 2), (0, 0)))
    ref = np.zeros((1, 3, 5, 1), dtype=np.float32)
    for r in range(3):
        for c in range(5):
            ref[0, r, c, 0] = (xp[0, r:r + 2, c:c + 2, 0] * w.data[:, :, 0, 0]).sum()
    assert y.shape == ref.shape
    assert np.allclose(y.data, ref, atol=1e-5)


def test_conv_linearity():
    x, z = rt((1, 5, 5, 2), 5), rt((1, 5, 5, 2), 6)
    w = rt((3, 3, 2, 3), 7)
    lhs = nn.conv2d(Tensor(2 * x.data + 3 * z.data), w, pad=(1, 1, 1, 1))
    rhs = 2 * nn.conv2d(x, w, pad=(1, 1, 1, 1)).data + 3 * nn.conv2d(z, w, pad=(1, 1, 1, 1)).data
    assert np.allclose(lhs.data, rhs, atol=1e-4)


def test_conv2d_gradcheck():
    with T.using_dtype(np.float64):
        x = rt((1, 4, 5, 2), 11)
        w = rt((3, 2, 2, 3), 12)
        b = rt((3,), 13)

        def fx(v):
            return T.tsum(T.mul(nn.conv2d(v, w, b, stride=2, pad=(1, 0, 2, 1)),
                                nn.conv2d(v, w, b, stride=2, pad=(1, 0, 2, 1))))

        assert gradcheck(fx, x, eps=1e-5, tol=1e-6).passed

        def fw(v):
            return T.tsum(T.mul(nn.conv2d(x, v, b, stride=2, pad=(1, 0, 2, 1)),
                                nn.conv2d(x, v, b, stride=2, pad=(1, 0, 2, 1))))

        assert gradcheck(fw, w, eps=1e-5, tol=1e-6).passed


# ---------------------------------------------------------------------------
# conv2d against the im2col oracle

def im2col_conv2d(x, w, b, g, stride, pad, groups=1):
    """Test-only oracle: the GEMM-lowered convolution over an explicitly
    padded input. Returns y and, for output grads g, (dx, dw, db). With
    groups > 1 it is the grouped convolution (weights (kh, kw, cin/groups,
    cout)) that checks the Euler pair conv and avg_pool."""
    n, h, wd, cin = x.shape
    kh, kw, cig, cout = w.shape
    pt, pb, pl, pr = pad
    oh = nn.conv_out_extent(h, pt, pb, kh, stride)
    ow = nn.conv_out_extent(wd, pl, pr, kw, stride)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        n * oh * ow, kh * kw * cin)
    if groups == 1:
        y = (cols @ w.reshape(kh * kw * cin, cout)).reshape(n, oh, ow, cout)
    else:
        win_g = cols.reshape(n, oh, ow, kh, kw, groups, cig)
        w_g = w.reshape(kh, kw, cig, groups, cout // groups)
        y = np.einsum("nhwijgc,ijcgo->nhwgo", win_g, w_g).reshape(n, oh, ow, cout)
    y = y + b
    if groups == 1:
        g2 = g.reshape(n * oh * ow, cout)
        dw = (cols.T @ g2).reshape(w.shape)
        dcols = (g2 @ w.reshape(kh * kw * cin, cout).T).reshape(n, oh, ow, kh, kw, cin)
    else:
        g_g = g.reshape(n, oh, ow, groups, cout // groups)
        dw = np.einsum("nhwijgc,nhwgo->ijcgo", win_g, g_g).reshape(w.shape)
        dcols = np.einsum("nhwgo,ijcgo->nhwijgc", g_g, w_g).reshape(n, oh, ow, kh, kw, cin)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + oh * stride:stride, j:j + ow * stride:stride, :] += dcols[:, :, :, i, j, :]
    return y, (dxp[:, pt:pt + h, pl:pl + wd, :], dw, g.sum(axis=(0, 1, 2)))


def _conv2d_vs_oracle(rng, xs, ws, stride, pad):
    x = rng.standard_normal(xs)
    w = rng.standard_normal(ws)
    b = rng.standard_normal(ws[3])
    with T.using_dtype(np.float64):
        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        with Tape() as tape:
            y = nn.conv2d(xt, wt, bt, stride=stride, pad=pad)
            g = rng.standard_normal(y.shape)
            grads = tape.grad(T.tsum(T.mul(y, Tensor(g))), [xt, wt, bt])
    y_ref, grads_ref = im2col_conv2d(x, w, b, g, stride, pad)
    return y, y_ref, dict(zip(("dx", "dw", "db"), zip(grads, grads_ref)))


def _euler_pairs_vs_oracle(rng, xs, ws, stride, pad):
    # the Euler pair conv: the oracle convolves the interleaved channels
    # (re_k, im_k) = A*(cos, sin)(theta) as the grouped conv, then closes over
    # the expansion: dA = dre*cos + dim*sin, dtheta = dim*re - dre*im
    c = xs[3] // 2
    u = rng.standard_normal(xs[:3] + (c,))
    v = rng.standard_normal(xs[:3] + (c,))
    w = rng.standard_normal(ws)
    b = rng.standard_normal(ws[3])
    with T.using_dtype(np.float64):
        ut, vt, wt, bt = Tensor(u), Tensor(v), Tensor(w), Tensor(b)
        with Tape() as tape:
            y = ef.euler_pair_conv(ut, vt, wt, bt, pad)
            g = rng.standard_normal(y.shape)
            grads = tape.grad(T.tsum(T.mul(y, Tensor(g))), [ut, vt, wt, bt])
    theta = np.pi * np.tanh(v)  # |v| stays far below the clamp
    re, im = np.logaddexp(0, u) * np.cos(theta), np.logaddexp(0, u) * np.sin(theta)
    x = np.stack([re, im], axis=-1).reshape(xs)
    y_ref, (dx, dw, db) = im2col_conv2d(x, w, b, g, stride, pad, groups=c)
    dre, dim = dx[..., 0::2], dx[..., 1::2]
    du = (dre * np.cos(theta) + dim * np.sin(theta)) / (1 + np.exp(-u))
    dv = (dim * re - dre * im) * np.pi * (1 - np.tanh(v) ** 2)
    return y, y_ref, dict(zip(("du", "dv", "dw", "db"), zip(grads, (du, dv, dw, db))))


def _avg_pool_vs_oracle(rng, xs, ws, stride, pad):
    # avg_pool's window: the depthwise grouped conv of ones, over the count of
    # real pixels in each window (the same conv of a ones map)
    x = rng.standard_normal(xs)
    c, k = xs[3], ws[0]
    with T.using_dtype(np.float64):
        xt = Tensor(x)
        with Tape() as tape:
            y = nn.avg_pool(xt, k)
            g = rng.standard_normal(y.shape)
            (dx,) = tape.grad(T.tsum(T.mul(y, Tensor(g))), [xt])
    counts, _ = im2col_conv2d(np.ones(xs[:3] + (1,)), np.ones((k, k, 1, 1)), np.zeros(1),
                              np.zeros(xs[:3] + (1,)), stride, pad)
    sums, (dx_ref, _, _) = im2col_conv2d(x, np.ones(ws), np.zeros(c), g / counts,
                                         stride, pad, groups=c)
    return y, sums / counts, {"dx": (dx, dx_ref)}


_ORACLE_RUNS = {"conv2d": _conv2d_vs_oracle, "euler_pair_conv": _euler_pairs_vs_oracle,
                "avg_pool": _avg_pool_vs_oracle}

# id -> (op, x shape, w shape, stride, pad)
_ORACLE_CASES = {
    # every stair branch's extents on the 8x8 and 4x4 maps of stages 4 and 5
    **{f"stair_{axis}_{level}_{side}_{hw}x{hw}":
       ("conv2d", (2, hw, hw, 3), (3 * level, 3 * level, 3, 4), 1,
        sc.stair_pads(axis, level, side, 3))
       for hw in (4, 8) for level in (1, 2)
       for axis, side in (("horizontal", "right"), ("horizontal", "left"),
                          ("vertical", "up"), ("vertical", "down"))},
    "k6_on_4x4_symmetric": ("conv2d", (2, 4, 4, 3), (6, 6, 3, 4), 1, (3, 3, 3, 3)),
    "k2_stride2": ("conv2d", (2, 6, 6, 3), (2, 2, 3, 5), 2, (0, 0, 0, 0)),
    # pads wider than the kernel: whole output rows/columns see only padding
    "pad_wider_than_kernel": ("conv2d", (2, 4, 5, 3), (3, 2, 3, 4), 1, (5, 0, 1, 4)),
    "pad_wider_than_kernel_stride2": ("conv2d", (1, 5, 4, 2), (3, 3, 2, 3), 2, (4, 5, 0, 6)),
    "k1": ("conv2d", (2, 5, 4, 3), (1, 1, 3, 4), 1, (0, 0, 0, 0)),
    # the grouped layouts the model runs, through the ops that compute them:
    # Euler's vertical (re, im) pair conv and avg_pool's depthwise 3x3 window
    "euler_group_v_c8": ("euler_pair_conv", (2, 6, 5, 16), (3, 1, 2, 8), 1, (1, 1, 0, 0)),
    "avg_pool_depthwise_c8": ("avg_pool", (2, 6, 5, 8), (3, 3, 1, 8), 1, (1, 1, 1, 1)),
}


@pytest.mark.parametrize("op, xs, ws, stride, pad", list(_ORACLE_CASES.values()),
                         ids=list(_ORACLE_CASES))
def test_conv2d_matches_im2col_oracle(op, xs, ws, stride, pad):
    y, y_ref, grads = _ORACLE_RUNS[op](np.random.default_rng(0), xs, ws, stride, pad)
    assert y.shape == y_ref.shape
    assert np.allclose(y.data, y_ref, rtol=1e-12, atol=1e-12)
    for name, (got, ref) in grads.items():
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12), name


# ---------------------------------------------------------------------------
# conv2d_transpose

def test_transpose_doubles_extent():
    y = nn.conv2d_transpose(rt((1, 4, 4, 4)), rt((2, 2, 2, 4)), T.zeros((2,)))
    assert y.shape == (1, 8, 8, 2)


def test_transpose_zero_input_gives_bias():
    b = Tensor(np.asarray([1.5, -2.0], dtype=np.float32))
    y = nn.conv2d_transpose(Tensor(np.zeros((1, 2, 2, 3), dtype=np.float32)),
                            rt((2, 2, 2, 3)), b)
    assert np.allclose(y.data, np.broadcast_to(b.data, (1, 4, 4, 2)))


def test_transpose_rejects_other_kernels():
    with pytest.raises(ConfigError):
        nn.conv2d_transpose(rt((1, 2, 2, 1)), rt((3, 3, 1, 1)), T.zeros((1,)))


def test_transpose_rejects_weights_that_are_not_4d():
    with pytest.raises(ShapeError, match=r"\(2, 2, 1\)"):
        nn.conv2d_transpose(rt((1, 2, 2, 1)), rt((2, 2, 1)), T.zeros((1,)))


def test_conv_transpose_adjoint_identity():
    # <conv2d(x), y> == <x, conv2d_transpose(y)> with a shared weight array
    for n, h, w, cin, cout in [(2, 3, 3, 3, 5), (3, 2, 4, 4, 2)]:
        rng = np.random.default_rng(31)
        with T.using_dtype(np.float64):
            x = Tensor(rng.standard_normal((n, 2 * h, 2 * w, cin)))
            y = Tensor(rng.standard_normal((n, h, w, cout)))
            wt = Tensor(rng.standard_normal((2, 2, cin, cout)))
            lhs = float((nn.conv2d(x, wt, stride=2).data * y.data).sum())
            rhs = float((x.data * nn.conv2d_transpose(y, wt, T.zeros((cin,))).data).sum())
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (n, h, w, cin, cout)


def test_transpose_gradcheck():
    with T.using_dtype(np.float64):
        x = rt((1, 3, 3, 2), 41)
        w = rt((2, 2, 3, 2), 42)
        b = T.zeros((3,))

        def f(v):
            y = nn.conv2d_transpose(v, w, b)
            return T.tsum(T.mul(y, y))

        assert gradcheck(f, x, eps=1e-5, tol=1e-6).passed

        def fw(v):
            y = nn.conv2d_transpose(x, v, b)
            return T.tsum(T.mul(y, y))

        assert gradcheck(fw, w, eps=1e-5, tol=1e-6).passed


# ---------------------------------------------------------------------------
# avg_pool

def test_avg_pool_preserves_constants():
    x = Tensor(np.full((1, 6, 5, 2), 3.25, dtype=np.float32))
    y = nn.avg_pool(x, k=3)
    assert np.allclose(y.data, 3.25, atol=1e-6)


def test_avg_pool_center_impulse():
    x = np.zeros((1, 3, 3, 1), dtype=np.float32)
    x[0, 1, 1, 0] = 1.0
    y = nn.avg_pool(Tensor(x), k=3)
    assert y.data[0, 1, 1, 0] == pytest.approx(1 / 9)
    assert y.data[0, 0, 0, 0] == pytest.approx(1 / 4)  # corner window has 4 pixels


def test_avg_pool_k1_identity():
    x = rt((1, 4, 4, 3), 51)
    assert np.array_equal(nn.avg_pool(x, k=1).data, x.data)


def test_avg_pool_even_k_error():
    # odd negative k would pass an odd-k check alone
    for k in (2, -1, -3):
        with pytest.raises(ConfigError):
            nn.avg_pool(rt((1, 4, 4, 1)), k=k)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_avg_pool_matches_window_mean_oracle(k):
    g = np.random.default_rng(54).standard_normal((2, 5, 7, 3))
    with T.using_dtype(np.float64):
        x = rt((2, 5, 7, 3), 53)
        with Tape() as tape:
            y = nn.avg_pool(x, k=k)
            dx = tape.grad(T.tsum(T.mul(y, Tensor(g))), [x])[0]
    p = k // 2
    expect, expect_dx = np.empty_like(x.data), np.zeros_like(x.data)
    for i in range(5):
        for j in range(7):
            rows, cols = slice(max(i - p, 0), i + p + 1), slice(max(j - p, 0), j + p + 1)
            win = x.data[:, rows, cols, :]
            expect[:, i, j, :] = win.mean(axis=(1, 2))
            # output (i, j) hands g/count to every pixel of its window
            expect_dx[:, rows, cols, :] += (g[:, i, j, :] / (win.shape[1] * win.shape[2]))[
                :, None, None, :]
    assert np.allclose(y.data, expect, rtol=1e-12, atol=1e-12)
    assert np.allclose(dx, expect_dx, rtol=1e-12, atol=1e-12)


def test_avg_pool_gradcheck():
    with T.using_dtype(np.float64):
        x = rt((1, 4, 4, 2), 52)

        def f(v):
            y = nn.avg_pool(v, k=3)
            return T.tsum(T.mul(y, y))

        assert gradcheck(f, x, eps=1e-5, tol=1e-6).passed


# ---------------------------------------------------------------------------
# batch norm

def _bn_args(c, gamma=1.0, beta=0.0):
    """gamma, beta, running_mean, running_var of a fresh c-channel batch norm."""
    return (T.tensor_new((c,), gamma), T.tensor_new((c,), beta),
            np.zeros(c, dtype=T.default_dtype()), np.ones(c, dtype=T.default_dtype()))


def test_bn_train_normalizes():
    x = rt((4, 5, 5, 3), 61, scale=2.5)
    y = nn.batch_norm(x, *_bn_args(3), training=True)
    mu = y.data.mean(axis=(0, 1, 2))
    var = y.data.var(axis=(0, 1, 2))
    assert np.all(np.abs(mu) <= 1e-4)
    assert np.all(np.abs(var - 1) <= 1e-3)


def test_bn_affine():
    x = rt((2, 6, 6, 2), 62)
    y = nn.batch_norm(x, *_bn_args(2, gamma=2.0, beta=1.0), training=True)
    assert np.allclose(y.data.mean(axis=(0, 1, 2)), 1.0, atol=1e-4)
    assert np.allclose(y.data.std(axis=(0, 1, 2)), 2.0, atol=1e-3)


def test_bn_eval_uses_running_stats():
    x = rt((1, 3, 3, 2), 63)
    y = nn.batch_norm(x, *_bn_args(2), training=False)
    assert np.allclose(y.data, x.data / np.sqrt(1 + 1e-5), atol=1e-6)


def test_bn_running_stats_update():
    x = rt((2, 4, 4, 2), 64, scale=3.0)
    gamma, beta, rm, rv = _bn_args(2)
    nn.batch_norm(x, gamma, beta, rm, rv, training=True)
    expect_m = 0.1 * x.data.mean(axis=(0, 1, 2))
    expect_v = 0.9 * 1.0 + 0.1 * x.data.var(axis=(0, 1, 2))
    assert np.allclose(rm, expect_m, atol=1e-5)
    assert np.allclose(rv, expect_v, atol=1e-4)


def test_bn_single_element_error():
    with pytest.raises(ShapeError):
        nn.batch_norm(rt((1, 1, 1, 3)), *_bn_args(3), training=True)


def test_bn_gradcheck_train_mode():
    with T.using_dtype(np.float64):
        x = rt((2, 3, 3, 2), 65)
        args = _bn_args(2)
        # sum(y^2) is degenerate for a normalizer (output norm is pinned),
        # so probe with a fixed random linear functional instead
        r = rt((2, 3, 3, 2), 66)

        def f(v):
            y = nn.batch_norm(v, *args, training=True)
            return T.tsum(T.mul(y, r))

        assert gradcheck(f, x, eps=1e-5, tol=1e-6).passed


# ---------------------------------------------------------------------------
# the norms' sums against numpy's mean and var

def standardize_oracle(x, gamma, beta, axes, g):
    """Test-only oracle: the norm forward and backward written with numpy's
    mean/var reductions. Returns y, (dx, dgamma, dbeta), batch mean, batch var."""
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    ivar = 1.0 / np.sqrt(var + nn.NORM_EPS)
    xh = (x - mean) * ivar
    dxh = g * gamma
    dx = ivar * (dxh - dxh.mean(axis=axes, keepdims=True)
                 - xh * (dxh * xh).mean(axis=axes, keepdims=True))
    return gamma * xh + beta, (dx, (g * xh).sum(axis=(0, 1, 2)), g.sum(axis=(0, 1, 2))), \
        mean.reshape(-1), var.reshape(-1)


def _norm_case(seed):
    rng = np.random.default_rng(seed)
    x = 3.0 * rng.standard_normal((3, 5, 4, 6)) + rng.standard_normal(6)
    return (x, 1.0 + 0.5 * rng.standard_normal(6), rng.standard_normal(6),
            rng.standard_normal(x.shape))


def _with_grads(op, x, gamma, beta, g):
    xt, gt, bt = Tensor(x), Tensor(gamma), Tensor(beta)
    with Tape() as tape:
        y = op(xt, gt, bt)
        grads = tape.grad(T.tsum(T.mul(y, Tensor(g))), [xt, gt, bt])
    return y.data, grads


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_batch_norm_matches_mean_var_oracle_float64():
    x, gamma, beta, g = _norm_case(81)
    with T.using_dtype(np.float64):
        rm, rv = np.linspace(-1, 1, 6), np.linspace(0.5, 2, 6)
        run_m, run_v = rm.copy(), rv.copy()
        y, grads = _with_grads(lambda v, ga, be: nn.batch_norm(v, ga, be, run_m, run_v, True),
                               x, gamma, beta, g)
        y_ref, grads_ref, mean, var = standardize_oracle(x, gamma, beta, (0, 1, 2), g)
        _close(y, y_ref)
        for got, want in zip(grads, grads_ref):
            _close(got, want)
        _close(run_m, (1 - nn.BN_MOMENTUM) * rm + nn.BN_MOMENTUM * mean)
        _close(run_v, (1 - nn.BN_MOMENTUM) * rv + nn.BN_MOMENTUM * var)
        # eval mode: the running statistics, and its affine gradients
        y, (dx, dgamma, dbeta) = _with_grads(
            lambda v, ga, be: nn.batch_norm(v, ga, be, rm, rv, False), x, gamma, beta, g)
        xh = (x - rm) / np.sqrt(rv + nn.NORM_EPS)
        _close(y, gamma * xh + beta)
        _close(dx, g * gamma / np.sqrt(rv + nn.NORM_EPS))
        _close(dgamma, (g * xh).sum(axis=(0, 1, 2)))
        _close(dbeta, g.sum(axis=(0, 1, 2)))


def test_layer_norm_matches_mean_var_oracle_float64():
    x, gamma, beta, g = _norm_case(82)
    with T.using_dtype(np.float64):
        y, grads = _with_grads(nn.layer_norm, x, gamma, beta, g)
    y_ref, grads_ref, _, _ = standardize_oracle(x, gamma, beta, (-1,), g)
    _close(y, y_ref)
    for got, want in zip(grads, grads_ref):
        _close(got, want)


@pytest.mark.parametrize("kind", ["contiguous", "strided", "zero_stride"])
def test_gemv_sum_matches_numpy_sum(kind):
    base = np.random.default_rng(83).standard_normal((3, 8, 6, 10))
    x = {"contiguous": base, "strided": base[:, 1::2, ::-1, ::2],
         "zero_stride": np.broadcast_to(base[:, :1, :1], base.shape)}[kind]
    assert (0 in x.strides) == (kind == "zero_stride")
    assert x.flags.c_contiguous == (kind == "contiguous")
    _close(T.gemv_sum(x, (0, 1, 2)), x.sum(axis=(0, 1, 2)))
    _close(T.gemv_sum(x, (-1,)), x.sum(axis=-1, keepdims=True))
    with pytest.raises(ConfigError):
        T.gemv_sum(x, (1, 2))


# ---------------------------------------------------------------------------
# layer norm

def test_ln_constant_channels_give_beta():
    x = Tensor(np.full((1, 2, 2, 4), 7.0, dtype=np.float32))
    beta = Tensor(np.asarray([1.0, 2.0, 3.0, 4.0], dtype=np.float32))
    y = nn.layer_norm(x, T.tensor_new((4,), 1.0), beta)
    assert np.allclose(y.data, np.broadcast_to(beta.data, x.shape), atol=1e-5)


def test_ln_two_channel_values():
    # channels [1, 3]: mean 2, population std 1 -> normalized [-1, 1]
    x = Tensor(np.asarray([1.0, 3.0], dtype=np.float32).reshape(1, 1, 1, 2))
    y = nn.layer_norm(x, T.tensor_new((2,), 1.0), T.zeros((2,)))
    assert np.allclose(y.data.reshape(-1), [-1.0, 1.0], atol=1e-4)


def test_ln_shift_invariance():
    x = rt((1, 3, 3, 5), 71)
    y1 = nn.layer_norm(x, T.tensor_new((5,), 1.0), T.zeros((5,)))
    y2 = nn.layer_norm(Tensor(x.data + 4.2), T.tensor_new((5,), 1.0), T.zeros((5,)))
    assert np.allclose(y1.data, y2.data, atol=1e-5)


def test_ln_gradcheck():
    with T.using_dtype(np.float64):
        x = rt((1, 2, 2, 3), 72)
        gamma, beta = rt((3,), 73), rt((3,), 74)

        def f(v):
            y = nn.layer_norm(v, gamma, beta)
            return T.tsum(T.mul(y, y))

        assert gradcheck(f, x, eps=1e-5, tol=1e-6).passed


# ---------------------------------------------------------------------------
# mlp / res blocks

def test_mlp_zero_weights_zero_output():
    store = ParamStore(80)
    mlp = nn.Mlp(store, "mlp", 3)
    for name in store.names():
        store.set_value(name, T.zeros(store.value(name).shape))
    y = mlp(rt((1, 2, 2, 3), 81))
    assert np.all(y.data == 0)


def test_mlp_identity_configuration():
    # first layer shifts into SiLU's linear regime, second undoes it
    c, hidden = 3, 12
    shift = 40.0
    w1 = np.zeros((1, 1, c, hidden), dtype=np.float32)
    w1[0, 0, :c, :c] = np.eye(c)
    b1 = np.zeros(hidden, dtype=np.float32)
    b1[:c] = shift
    w2 = np.zeros((1, 1, hidden, c), dtype=np.float32)
    w2[0, 0, :c, :c] = np.eye(c)
    b2 = np.full(c, -shift, dtype=np.float32)
    store = ParamStore(80)
    mlp = nn.Mlp(store, "mlp", c)
    for name, v in (("fc1.w", w1), ("fc1.b", b1), ("fc2.w", w2), ("fc2.b", b2)):
        store.set_value(f"mlp.{name}", Tensor(v))
    x = rt((1, 3, 3, c), 82, scale=0.5)
    assert np.allclose(mlp(x).data, x.data, atol=1e-5)


def test_mlp_gradcheck():
    with T.using_dtype(np.float64):
        store = ParamStore(83)
        mlp = nn.Mlp(store, "mlp", 4)
        x = rt((1, 2, 2, 4), 84)

        def f(v):
            y = mlp(v)
            return T.tsum(T.mul(y, y))

        assert gradcheck(f, x, eps=1e-5, tol=1e-6).passed


def test_res_block_shortcut_only():
    store = ParamStore(91)
    blk = nn.ResBlock(store, "rb", 3)
    for name in ("rb.conv1.w", "rb.conv2.w"):
        store.set_value(name, T.zeros(store.value(name).shape))
    x = rt((1, 4, 4, 3), 92)
    y = blk(x, training=False)
    assert np.allclose(y.data, np.maximum(x.data, 0), atol=1e-6)


def test_res_block_shape_and_gradcheck():
    with T.using_dtype(np.float64):
        store = ParamStore(93)
        blk = nn.ResBlock(store, "rb", 2)
        x = rt((1, 4, 4, 2), 94)
        y = blk(x, training=True)
        assert y.shape == x.shape

        def f(v):
            out = blk(v, training=True)
            return T.tsum(T.mul(out, out))

        assert gradcheck(f, x, eps=1e-5, tol=1e-5).passed


def test_param_grads_flow_through_layers():
    store = ParamStore(95)
    blk = nn.ResBlock(store, "rb", 2)
    x = rt((2, 4, 4, 2), 96)
    with Tape() as tape:
        y = blk(x, training=True)
        loss = T.tsum(T.mul(y, y))
        T.backward(tape, loss, store)
    g = store["rb.conv1.w"].grad
    assert g.shape == store.value("rb.conv1.w").shape
    assert np.abs(g).max() > 0


# ---------------------------------------------------------------------------
# deferred initial draws

def test_deferred_draws_take_the_store_dtype():
    with T.using_dtype(np.float64):
        store = ParamStore(6)
        nn.Conv2d(store, "c", 2, 3, 3)
    bound = float(np.sqrt(3.0 * 1.0 / (3 * 3 * 2)))
    want = np.random.default_rng(6).uniform(-bound, bound, size=(3, 3, 2, 3))
    got = store.value("c.w").data  # first read with float32 the default dtype
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# kernels trimmed to the taps that are live at a known input extent

def _live_taps_naive(extent, kernel, pad, stride):
    """(kh, kw) mask of the taps that multiply at least one real pixel,
    read off an explicitly padded map of ones."""
    (h, w), (kh, kw), (pt, pb, pl, pr) = extent, kernel, pad
    img = np.zeros((h + pt + pb, w + pl + pr))
    img[pt:pt + h, pl:pl + w] = 1
    oh, ow = (img.shape[0] - kh) // stride + 1, (img.shape[1] - kw) // stride + 1
    return np.array([[img[i:i + (oh - 1) * stride + 1:stride,
                          j:j + (ow - 1) * stride + 1:stride].any() for j in range(kw)]
                     for i in range(kh)])


def _first_last(live):
    idx = np.flatnonzero(live)
    return slice(idx[0], idx[-1] + 1)


# id -> (input extent, kernel (kh, kw), pad, stride)
_TRIM_CASES = {
    **{f"stair_{axis}_2_{side}_{hw}x{hw}": ((hw, hw), (6, 6), sc.stair_pads(axis, 2, side, 3), 1)
       for hw in (2, 4) for axis, side in (("horizontal", "right"), ("horizontal", "left"),
                                           ("vertical", "up"), ("vertical", "down"))},
    "k6_on_4x4_symmetric": ((4, 4), (6, 6), (3, 3, 3, 3), 1),
    "pad_wider_than_kernel": ((4, 5), (3, 2), (5, 0, 1, 4), 1),
    "pad_wider_than_kernel_stride2": ((5, 4), (3, 3), (4, 5, 0, 6), 2),
    "same_3x3": ((4, 4), (3, 3), (1, 1, 1, 1), 1),
}


@pytest.mark.parametrize("extent, kernel, pad, stride", list(_TRIM_CASES.values()),
                         ids=list(_TRIM_CASES))
def test_conv_with_extent_keeps_only_the_live_taps(extent, kernel, pad, stride):
    full_store, store = ParamStore(3), ParamStore(3)
    full = nn.Conv2d(full_store, "c", 2, 3, *kernel, stride=stride, pad=pad, bias=False)
    trim = nn.Conv2d(store, "c", 2, 3, *kernel, stride=stride, pad=pad, bias=False,
                     extent=extent)
    live = _live_taps_naive(extent, kernel, pad, stride)
    rows, cols = _first_last(live.any(axis=1)), _first_last(live.any(axis=0))
    w_full, w = full_store.value("c.w").data, store.value("c.w").data
    assert np.array_equal(w, w_full[rows, cols])  # the full kernel's draw, windowed
    kept = _live_taps_naive(extent, w.shape[:2], trim.pad, stride)
    assert kept.any(axis=1)[[0, -1]].all() and kept.any(axis=0)[[0, -1]].all()
    if stride == 1:  # at stride 1 the live taps are one rectangle: nothing dead is kept
        assert kept.all()
    x = rt((2,) + extent + (2,), seed=4)
    assert np.array_equal(trim(x).data, full(x).data)


# id -> (input extent, kernel (kh, kw), pad, stride), from both tables
_PLAN_CASES = {**{f"trim_{k}": case for k, case in _TRIM_CASES.items()},
               **{f"oracle_{k}": (xs[1:3], ws[:2], pad, stride)
                  for k, (op, xs, ws, stride, pad) in _ORACLE_CASES.items() if op == "conv2d"}}


@pytest.mark.parametrize("extent, kernel, pad, stride", list(_PLAN_CASES.values()),
                         ids=list(_PLAN_CASES))
def test_tap_plan_is_the_padded_maps_windows(extent, kernel, pad, stride):
    (h, w), (kh, kw), (pt, pb, pl, pr) = extent, kernel, pad
    oh, ow, taps = nn.tap_plan(h, w, kh, kw, pad, stride)
    x = np.arange(2 * h * w * 3, dtype=np.float64).reshape(2, h, w, 3) + 1
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=np.nan)
    assert (oh, ow) == ((xp.shape[1] - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1)
    live = np.zeros((kh, kw), dtype=bool)
    for i, j, out, src in taps:
        assert not live[i, j]  # no tap twice
        live[i, j] = True
        window = xp[:, i:i + (oh - 1) * stride + 1:stride, j:j + (ow - 1) * stride + 1:stride]
        assert np.array_equal(x[src], window[out])
        # `out` is every output at which the tap sees a real pixel (padding is NaN)
        reached = np.zeros((oh, ow), dtype=bool)
        reached[out[1:]] = True
        assert np.array_equal(reached, ~np.isnan(window[0, :, :, 0]))
    assert np.array_equal(live, _live_taps_naive(extent, kernel, pad, stride))


def test_conv_with_extent_refuses_another_extent():
    conv = nn.Conv2d(ParamStore(0), "c", 2, 3, 6, pad=sc.stair_pads("vertical", 2, "up", 3),
                     bias=False, extent=(4, 4))
    conv(rt((1, 4, 4, 2)))
    for shape in ((1, 5, 4, 2), (1, 4, 8, 2), (1, 8, 8, 2)):
        with pytest.raises(ShapeError):
            conv(rt(shape))


def test_conv_refuses_an_unknown_pad_string():
    for pad in ("Same", "full", ""):
        with pytest.raises(ConfigError, match="pad"):
            nn.Conv2d(ParamStore(0), "c", 2, 3, 3, pad=pad)


def test_conv_with_extent_refuses_an_input_no_tap_sees():
    # stride 3 over a 1x1 image padded by 1: the one output's window is a padding row
    with pytest.raises(ConfigError):
        nn.Conv2d(ParamStore(0), "c", 1, 1, 1, stride=3, pad=(1, 1, 1, 1), extent=(1, 1))
