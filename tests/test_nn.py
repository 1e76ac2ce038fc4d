import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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


def test_conv_groups_match_per_group_convs():
    x = rt((2, 5, 5, 4), 8)
    w = rt((3, 3, 2, 6), 9)  # groups=2: 4ch -> 6ch
    y = nn.conv2d(x, w, pad=(1, 1, 1, 1), groups=2)
    for g in range(2):
        xg = Tensor(x.data[..., 2 * g:2 * g + 2])
        wg = Tensor(w.data[..., :, 3 * g:3 * g + 3])
        yg = nn.conv2d(xg, wg, pad=(1, 1, 1, 1))
        assert np.allclose(y.data[..., 3 * g:3 * g + 3], yg.data, atol=1e-5)


def test_conv_groups_divisibility_error():
    with pytest.raises(ConfigError):
        nn.conv2d(rt((1, 4, 4, 3)), rt((1, 1, 1, 4)), groups=2)


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


def test_conv_groups_gradcheck():
    with T.using_dtype(np.float64):
        x = rt((1, 3, 3, 4), 20)
        w = rt((1, 3, 2, 2), 21)  # groups=2, 4->2

        def f(v):
            y = nn.conv2d(x, v, pad=(0, 0, 1, 1), groups=2)
            return T.tsum(T.mul(y, y))

        assert gradcheck(f, w, eps=1e-5, tol=1e-6).passed


# ---------------------------------------------------------------------------
# conv2d against the im2col oracle

def im2col_conv2d(x, w, b, g, stride, pad, groups):
    """Test-only oracle: the GEMM-lowered convolution over an explicitly
    padded input. Returns y and, for output grads g, (dx, dw, db)."""
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


# id -> (x shape, w shape, stride, pad, groups)
_ORACLE_CASES = {
    # every stair branch's extents on the 8x8 and 4x4 maps of stages 4 and 5
    **{f"stair_{axis}_{level}_{side}_{hw}x{hw}":
       ((2, hw, hw, 3), (3 * level, 3 * level, 3, 4), 1, sc.stair_pads(axis, level, side, 3), 1)
       for hw in (4, 8) for level in (1, 2)
       for axis, side in (("horizontal", "right"), ("horizontal", "left"),
                          ("vertical", "up"), ("vertical", "down"))},
    "k6_on_4x4_symmetric": ((2, 4, 4, 3), (6, 6, 3, 4), 1, (3, 3, 3, 3), 1),
    "k2_stride2": ((2, 6, 6, 3), (2, 2, 3, 5), 2, (0, 0, 0, 0), 1),
    # pads wider than the kernel: whole output rows/columns see only padding
    "pad_wider_than_kernel": ((2, 4, 5, 3), (3, 2, 3, 4), 1, (5, 0, 1, 4), 1),
    "pad_wider_than_kernel_stride2": ((1, 5, 4, 2), (3, 3, 2, 3), 2, (4, 5, 0, 6), 1),
    "k1": ((2, 5, 4, 3), (1, 1, 3, 4), 1, (0, 0, 0, 0), 1),
    "groups_c_pairs": ((2, 5, 5, 6), (1, 3, 2, 3), 1, (0, 0, 1, 1), 3),
    "groups_2_three_out": ((2, 5, 5, 4), (3, 3, 2, 6), 1, (1, 1, 1, 1), 2),
}


@pytest.mark.parametrize("xs, ws, stride, pad, groups", list(_ORACLE_CASES.values()),
                         ids=list(_ORACLE_CASES))
def test_conv2d_matches_im2col_oracle(xs, ws, stride, pad, groups):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(xs)
    w = rng.standard_normal(ws)
    b = rng.standard_normal(ws[3])
    with T.using_dtype(np.float64):
        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        with Tape() as tape:
            y = nn.conv2d(xt, wt, bt, stride=stride, pad=pad, groups=groups)
            g = rng.standard_normal(y.shape)
            grads = tape.grad(T.tsum(T.mul(y, Tensor(g))), [xt, wt, bt])
    y_ref, grads_ref = im2col_conv2d(x, w, b, g, stride, pad, groups)
    assert y.shape == y_ref.shape
    assert np.allclose(y.data, y_ref, rtol=1e-12, atol=1e-12)
    for name, got, ref in zip(("dx", "dw", "db"), grads, grads_ref):
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


def test_conv_transpose_adjoint_identity():
    # <conv2d(x), y> == <x, conv2d_transpose(y)> with a shared weight array
    for n, h, w, cin, cout in [(2, 3, 3, 3, 5), (3, 2, 4, 4, 2)]:
        rng = np.random.default_rng(31)
        with T.using_dtype(np.float64):
            x = Tensor(rng.standard_normal((n, 2 * h, 2 * w, cin)))
            y = Tensor(rng.standard_normal((n, h, w, cout)))
            wt = Tensor(rng.standard_normal((2, 2, cin, cout)))
            lhs = float((nn.conv2d(x, wt, stride=2).data * y.data).sum())
            rhs = float((x.data * nn.conv2d_transpose(y, wt).data).sum())
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (n, h, w, cin, cout)


def test_transpose_gradcheck():
    with T.using_dtype(np.float64):
        x = rt((1, 3, 3, 2), 41)
        w = rt((2, 2, 3, 2), 42)

        def f(v):
            y = nn.conv2d_transpose(v, w)
            return T.tsum(T.mul(y, y))

        assert gradcheck(f, x, eps=1e-5, tol=1e-6).passed

        def fw(v):
            y = nn.conv2d_transpose(x, v)
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
    with pytest.raises(ConfigError):
        nn.avg_pool(rt((1, 4, 4, 1)), k=2)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_avg_pool_matches_window_mean_oracle(k):
    with T.using_dtype(np.float64):
        x = rt((2, 5, 7, 3), 53)
        y = nn.avg_pool(x, k=k).data
    p = k // 2
    expect = np.empty_like(x.data)
    for i in range(5):
        for j in range(7):
            win = x.data[:, max(i - p, 0):i + p + 1, max(j - p, 0):j + p + 1, :]
            expect[:, i, j, :] = win.mean(axis=(1, 2))
    assert np.allclose(y, expect, rtol=1e-12, atol=1e-12)


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
    store = ParamStore()
    mlp = nn.Mlp(store, "mlp", np.random.default_rng(80), 3)
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
    store = ParamStore()
    mlp = nn.Mlp(store, "mlp", np.random.default_rng(80), c)
    for name, v in (("fc1.w", w1), ("fc1.b", b1), ("fc2.w", w2), ("fc2.b", b2)):
        store.set_value(f"mlp.{name}", Tensor(v))
    x = rt((1, 3, 3, c), 82, scale=0.5)
    assert np.allclose(mlp(x).data, x.data, atol=1e-5)


def test_mlp_gradcheck():
    with T.using_dtype(np.float64):
        store = ParamStore()
        rng = np.random.default_rng(83)
        mlp = nn.Mlp(store, "mlp", rng, 4)
        x = rt((1, 2, 2, 4), 84)

        def f(v):
            y = mlp(v)
            return T.tsum(T.mul(y, y))

        assert gradcheck(f, x, eps=1e-5, tol=1e-6).passed


def test_res_block_shortcut_only():
    store = ParamStore()
    rng = np.random.default_rng(91)
    blk = nn.ResBlock(store, "rb", rng, 3)
    for name in ("rb.conv1.w", "rb.conv2.w"):
        store.set_value(name, T.zeros(store.value(name).shape))
    x = rt((1, 4, 4, 3), 92)
    y = blk(x, training=False)
    assert np.allclose(y.data, np.maximum(x.data, 0), atol=1e-6)


def test_res_block_shape_and_gradcheck():
    with T.using_dtype(np.float64):
        store = ParamStore()
        blk = nn.ResBlock(store, "rb", np.random.default_rng(93), 2)
        x = rt((1, 4, 4, 2), 94)
        y = blk(x, training=True)
        assert y.shape == x.shape

        def f(v):
            out = blk(v, training=True)
            return T.tsum(T.mul(out, out))

        assert gradcheck(f, x, eps=1e-5, tol=1e-5).passed


def test_param_grads_flow_through_layers():
    store = ParamStore()
    blk = nn.ResBlock(store, "rb", np.random.default_rng(95), 2)
    x = rt((2, 4, 4, 2), 96)
    with Tape() as tape:
        y = blk(x, training=True)
        loss = T.tsum(T.mul(y, y))
        T.backward(tape, loss, store)
    g = store["rb.conv1.w"].grad
    assert g.shape == store.value("rb.conv1.w").shape
    assert np.abs(g).max() > 0
