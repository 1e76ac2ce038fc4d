"""Standard layers over the tensor core: convolution with arbitrary
asymmetric padding / stride / groups, 2x2 stride-2 transposed convolution,
batch/layer norm, same-size average pooling, MLP and residual blocks.

Feature maps are NHWC; conv weights are (kh, kw, cin/groups, cout);
convolution is cross-correlation (no kernel flip).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .tensor import (
    ConfigError,
    ParamStore,
    ShapeError,
    Tensor,
    _rec,
    add,
    matmul,
    relu,
    reshape,
    silu,
)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, gain: float = 2.0) -> Tensor:
    """Fan-in uniform init with selectable variance gain.

    gain=2 is the ReLU-calibrated setting for layers a norm follows anyway;
    norm-free layers use gain=1 so the unnormalized conv chain neither
    explodes nor collapses with depth.
    """
    bound = float(np.sqrt(3.0 * gain / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(T.default_dtype()))


def _same_pad(k: int) -> tuple[int, int]:
    # odd kernels only; left/top gets the smaller half for even k
    return ((k - 1) // 2, k // 2)


def conv_out_extent(size: int, pad0: int, pad1: int, k: int, stride: int) -> int:
    return (size + pad0 + pad1 - k) // stride + 1


# ---------------------------------------------------------------------------
# conv2d

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
           pad: tuple[int, int, int, int] = (0, 0, 0, 0), groups: int = 1) -> Tensor:
    """Cross-correlation with explicit zero padding (top, bottom, left, right)."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d expects NHWC input, got shape {x.shape}")
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d expects (kh,kw,cin/groups,cout) weights, got {w.shape}")
    n, h, wd, cin = x.shape
    kh, kw, cig, cout = w.shape
    pt, pb, pl, pr = pad
    if cin % groups or cout % groups:
        raise ConfigError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
    if cig != cin // groups:
        raise ShapeError(f"weight cin/groups={cig} but input has {cin} channels, groups={groups}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")
    oh = conv_out_extent(h, pt, pb, kh, stride)
    ow = conv_out_extent(wd, pl, pr, kw, stride)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv output extent {oh}x{ow} < 1 for input {h}x{wd}, kernel {kh}x{kw}, "
            f"pad {pad}, stride {stride}")

    if kh == 1 and kw == 1 and stride == 1 and pad == (0, 0, 0, 0) and groups == 1:
        return _conv1x1(x, w, b)

    if pad == (0, 0, 0, 0):
        xp = x.data
    else:
        xp = np.pad(x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    # win: (n, oh, ow, cin, kh, kw) -> contiguous cols (n*oh*ow, kh*kw*cin);
    # kept for backward, where it feeds the dW GEMM
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        n * oh * ow, kh * kw * cin)

    if groups == 1:
        y = (cols @ w.data.reshape(kh * kw * cin, cout)).reshape(n, oh, ow, cout)
    else:
        win_g = cols.reshape(n, oh, ow, kh, kw, groups, cig)
        w_g = w.data.reshape(kh, kw, cig, groups, cout // groups)
        y = np.einsum("nhwijgc,ijcgo->nhwgo", win_g, w_g, optimize=True)
        y = y.reshape(n, oh, ow, cout)
    if b is not None:
        y = y + b.data
    out = Tensor(y)

    def bw(g):
        if groups == 1:
            g2 = g.reshape(n * oh * ow, cout)
            dw = (cols.T @ g2).reshape(w.shape)
            dcols = (g2 @ w.data.reshape(kh * kw * cin, cout).T).reshape(
                n, oh, ow, kh, kw, cin)
        else:
            g_g = g.reshape(n, oh, ow, groups, cout // groups)
            win_g2 = cols.reshape(n, oh, ow, kh, kw, groups, cig)
            dw = np.einsum("nhwijgc,nhwgo->ijcgo", win_g2, g_g, optimize=True)
            dw = dw.reshape(kh, kw, cig, cout)
            dcols = np.einsum("nhwgo,ijcgo->nhwijgc", g_g, w.data.reshape(kh, kw, cig, groups, -1),
                              optimize=True).reshape(n, oh, ow, kh, kw, cin)
        dxp = np.zeros((n, h + pt + pb, wd + pl + pr, cin), dtype=x.data.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + oh * stride:stride, j:j + ow * stride:stride, :] += dcols[:, :, :, i, j, :]
        dx = np.ascontiguousarray(dxp[:, pt:pt + h, pl:pl + wd, :])
        if b is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 1, 2))

    inputs = (x, w) if b is None else (x, w, b)
    return _rec(out, inputs, bw)


def _conv1x1(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    cin, cout = w.shape[2], w.shape[3]
    k = w.data.reshape(cin, cout)
    y = np.tensordot(x.data, k, axes=([3], [0]))
    if b is not None:
        y = y + b.data
    out = Tensor(y)

    def bw(g):
        dx = np.tensordot(g, k, axes=([3], [1]))
        dw = np.tensordot(x.data, g, axes=([0, 1, 2], [0, 1, 2])).reshape(w.shape)
        if b is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 1, 2))

    inputs = (x, w) if b is None else (x, w, b)
    return _rec(out, inputs, bw)


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """2x2 stride-2 transposed convolution: doubles H and W.

    Weight layout is (2, 2, cout, cin) so that sharing an array with the
    matching stride-2 conv2d makes the two ops exact adjoints.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose expects NHWC input, got {x.shape}")
    kh, kw, cout, cin = w.shape
    if (kh, kw) != (2, 2):
        raise ConfigError(f"only the 2x2 stride-2 configuration is supported, got kernel {kh}x{kw}")
    n, h, wd, cx = x.shape
    if cx != cin:
        raise ShapeError(f"input has {cx} channels, weight expects {cin}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")

    y = np.zeros((n, 2 * h, 2 * wd, cout), dtype=x.data.dtype)
    for i in range(2):
        for j in range(2):
            y[:, i::2, j::2, :] = np.tensordot(x.data, w.data[i, j], axes=([3], [1]))
    if b is not None:
        y = y + b.data
    out = Tensor(y)

    def bw(g):
        dx = np.zeros_like(x.data)
        dw = np.zeros_like(w.data)
        for i in range(2):
            for j in range(2):
                gij = g[:, i::2, j::2, :]
                dx += np.tensordot(gij, w.data[i, j], axes=([3], [0]))
                dw[i, j] = np.tensordot(gij, x.data, axes=([0, 1, 2], [0, 1, 2]))
        if b is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 1, 2))

    inputs = (x, w) if b is None else (x, w, b)
    return _rec(out, inputs, bw)


# ---------------------------------------------------------------------------
# pooling

def avg_pool(x: Tensor, k: int = 3) -> Tensor:
    """Stride-1 same-size average pooling; border windows divide by the true
    pixel count."""
    if k % 2 == 0:
        raise ConfigError(f"same-padding average pooling needs odd k, got {k}")
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool expects NHWC input, got {x.shape}")
    n, h, wd, c = x.shape
    p = k // 2
    xp = np.pad(x.data, ((0, 0), (p, p), (p, p), (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    sums = win.sum(axis=(4, 5))
    ones = np.pad(np.ones((h, wd), dtype=x.data.dtype), p)
    counts = sliding_window_view(ones, (k, k)).sum(axis=(2, 3))
    y = sums / counts[None, :, :, None]
    out = Tensor(y)

    def bw(g):
        gg = g / counts[None, :, :, None]
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                dxp[:, i:i + h, j:j + wd, :] += gg
        return (np.ascontiguousarray(dxp[:, p:p + h, p:p + wd, :]),)

    return _rec(out, (x,), bw)


# ---------------------------------------------------------------------------
# normalization

@dataclass
class NormState:
    """Affine + (for batch norm) running statistics of one normalization layer."""
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None
    eps: float = 1e-5
    momentum: float = 0.1


def batch_norm(x: Tensor, state: NormState, training: bool) -> Tensor:
    """Per-channel batch norm over (N, H, W).

    Training mode normalizes by batch statistics and folds them into the
    running estimates in place; eval mode uses the running estimates.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects NHWC input, got {x.shape}")
    c = x.shape[-1]
    if state.gamma.shape != (c,) or state.beta.shape != (c,):
        raise ShapeError(f"norm affine shape mismatch for {c} channels")
    gamma, beta = state.gamma, state.beta
    eps = x.data.dtype.type(state.eps)

    if training:
        m_count = x.shape[0] * x.shape[1] * x.shape[2]
        if m_count == 1:
            raise ShapeError("batch statistics undefined for a single element (N*H*W == 1)")
        mean = x.data.mean(axis=(0, 1, 2))
        var = x.data.var(axis=(0, 1, 2))
        if state.running_mean is not None:
            mom = state.momentum
            state.running_mean[...] = (1 - mom) * state.running_mean + mom * mean
            state.running_var[...] = (1 - mom) * state.running_var + mom * var
        ivar = 1.0 / np.sqrt(var + eps)
        xh = (x.data - mean) * ivar
        y = gamma.data * xh + beta.data
        out = Tensor(y)

        def bw(g):
            dgamma = (g * xh).sum(axis=(0, 1, 2))
            dbeta = g.sum(axis=(0, 1, 2))
            dxh = g * gamma.data
            m1 = dxh.mean(axis=(0, 1, 2))
            m2 = (dxh * xh).mean(axis=(0, 1, 2))
            dx = ivar * (dxh - m1 - xh * m2)
            return dx, dgamma, dbeta

        return _rec(out, (x, gamma, beta), bw)

    if state.running_mean is None or state.running_var is None:
        raise ConfigError("eval-mode batch_norm needs running statistics")
    ivar = 1.0 / np.sqrt(state.running_var + eps)
    xh = (x.data - state.running_mean) * ivar
    out = Tensor(gamma.data * xh + beta.data)

    def bw_eval(g):
        return g * gamma.data * ivar, (g * xh).sum(axis=(0, 1, 2)), g.sum(axis=(0, 1, 2))

    return _rec(out, (x, gamma, beta), bw_eval)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the channel axis at each spatial position, then affine."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm affine shape mismatch for {c} channels")
    epsv = x.data.dtype.type(eps)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + epsv)
    xh = (x.data - mean) * ivar
    out = Tensor(gamma.data * xh + beta.data)
    reduce_axes = tuple(range(x.data.ndim - 1))

    def bw(g):
        dgamma = (g * xh).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        dxh = g * gamma.data
        m1 = dxh.mean(axis=-1, keepdims=True)
        m2 = (dxh * xh).mean(axis=-1, keepdims=True)
        dx = ivar * (dxh - m1 - xh * m2)
        return dx, dgamma, dbeta

    return _rec(out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# composite blocks (functional forms)

def mlp_block(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Per-position two-layer MLP on channels: linear -> SiLU -> linear."""
    n, h, wd, c = x.shape
    flat = reshape(x, (n * h * wd, c))
    hidden = silu(add(matmul(flat, w1), b1))
    y = add(matmul(hidden, w2), b2)
    return reshape(y, (n, h, wd, w2.shape[1]))


def res_block(x: Tensor, conv1: "Conv2d", bn1: "BatchNorm",
              conv2: "Conv2d", bn2: "BatchNorm", training: bool) -> Tensor:
    """y = ReLU(BN(conv(ReLU(BN(conv(x))))) + x); channels preserved."""
    h = relu(bn1(conv1(x), training))
    h = bn2(conv2(h), training)
    return relu(add(h, x))


# ---------------------------------------------------------------------------
# parameterized layer wrappers

class Conv2d:
    """Convolution layer whose weights live in a ParamStore under `prefix`."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator,
                 cin: int, cout: int, kh: int, kw: int | None = None, *,
                 stride: int = 1, pad="same", groups: int = 1, bias: bool = True,
                 init_gain: float = 1.0):
        kw = kh if kw is None else kw
        if pad == "same":
            pt, pb = _same_pad(kh)
            pl, pr = _same_pad(kw)
            pad = (pt, pb, pl, pr)
        elif pad == "valid":
            pad = (0, 0, 0, 0)
        self.stride = stride
        self.pad = tuple(pad)
        self.groups = groups
        fan_in = kh * kw * (cin // groups)
        self.w_name = f"{prefix}.w"
        self.b_name = f"{prefix}.b" if bias else None
        store.add(self.w_name,
                  kaiming_uniform(rng, (kh, kw, cin // groups, cout), fan_in, init_gain))
        if bias:
            store.add(self.b_name, T.zeros((cout,)))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        b = self.store.value(self.b_name) if self.b_name else None
        return conv2d(x, self.store.value(self.w_name), b,
                      stride=self.stride, pad=self.pad, groups=self.groups)


class ConvTranspose2x2:
    """2x2 stride-2 upsampling conv; doubles spatial dims."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator,
                 cin: int, cout: int):
        self.w_name = f"{prefix}.w"
        self.b_name = f"{prefix}.b"
        store.add(self.w_name, kaiming_uniform(rng, (2, 2, cout, cin), cin, gain=1.0))
        store.add(self.b_name, T.zeros((cout,)))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_transpose(x, self.store.value(self.w_name), self.store.value(self.b_name))


class BatchNorm:
    """Batch norm at NormState's default eps and momentum."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.g_name = f"{prefix}.gamma"
        self.b_name = f"{prefix}.beta"
        store.add(self.g_name, tensor_ones(c))
        store.add(self.b_name, T.zeros((c,)))
        self.rm = store.add_buffer(f"{prefix}.running_mean", np.zeros(c))
        self.rv = store.add_buffer(f"{prefix}.running_var", np.ones(c))
        self.store = store

    def state(self) -> NormState:
        return NormState(self.store.value(self.g_name), self.store.value(self.b_name),
                         self.rm, self.rv)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm(x, self.state(), training)


class LayerNorm:
    """Layer norm at layer_norm's default eps."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.g_name = f"{prefix}.gamma"
        self.b_name = f"{prefix}.beta"
        store.add(self.g_name, tensor_ones(c))
        store.add(self.b_name, T.zeros((c,)))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.store.value(self.g_name), self.store.value(self.b_name))


class Mlp:
    """Channel MLP with hidden width 4 * c."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator, c: int):
        hidden = 4 * c
        self.w1, self.b1 = f"{prefix}.w1", f"{prefix}.b1"
        self.w2, self.b2 = f"{prefix}.w2", f"{prefix}.b2"
        store.add(self.w1, kaiming_uniform(rng, (c, hidden), c, gain=1.0))
        store.add(self.b1, T.zeros((hidden,)))
        store.add(self.w2, kaiming_uniform(rng, (hidden, c), hidden, gain=1.0))
        store.add(self.b2, T.zeros((c,)))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        s = self.store
        return mlp_block(x, s.value(self.w1), s.value(self.b1), s.value(self.w2), s.value(self.b2))


class ResBlock:
    """Two same-pad 3x3 convs with BN/ReLU and an identity shortcut."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator, c: int):
        self.conv1 = Conv2d(store, f"{prefix}.conv1", rng, c, c, 3, init_gain=2.0)
        self.bn1 = BatchNorm(store, f"{prefix}.bn1", c)
        self.conv2 = Conv2d(store, f"{prefix}.conv2", rng, c, c, 3, init_gain=2.0)
        self.bn2 = BatchNorm(store, f"{prefix}.bn2", c)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return res_block(x, self.conv1, self.bn1, self.conv2, self.bn2, training)


def tensor_ones(c: int) -> Tensor:
    return Tensor(np.ones(c, dtype=T.default_dtype()))
