"""Standard layers over the tensor core: convolution with arbitrary
asymmetric padding / stride / groups, 2x2 stride-2 transposed convolution,
batch/layer norm, same-size average pooling, MLP and residual blocks.

Feature maps are NHWC; conv weights are (kh, kw, cin/groups, cout);
convolution is cross-correlation (no kernel flip), summed over kernel taps
with implicit padding, so it costs only the products that touch real pixels.
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

def _tap_spans(out: int, size: int, pad: int, k: int, stride: int) -> list:
    """Per kernel offset t on one axis: the (output, input) slices of the outputs
    o whose input o*stride + t - pad lies inside the image, or None if none do."""
    spans = []
    for t in range(k):
        lo = max(0, -((t - pad) // stride))
        hi = min(out, (size - 1 + pad - t) // stride + 1)
        first = lo * stride + t - pad
        spans.append((slice(lo, hi), slice(first, first + (hi - lo - 1) * stride + 1, stride))
                     if lo < hi else None)
    return spans


def _tap_madd(out: np.ndarray, a: np.ndarray, wt: np.ndarray, groups: int) -> None:
    """out += (..., cin) inputs times one tap's (cin/groups, cout) weights: one GEMM
    for groups == 1, else a multiply-add per input/output channel pair of a group."""
    cig, cout = wt.shape
    if groups == 1:
        out += (a.reshape(-1, cig) @ wt).reshape(out.shape)
        return
    og = cout // groups
    for c in range(cig):
        for o in range(og):
            out[..., o::og] += a[..., c::cig] * wt[c, o::og]


def _tap_weight_grad(a: np.ndarray, g: np.ndarray, groups: int) -> np.ndarray:
    """One tap's (cin/groups, cout) weight gradient from its inputs and output grads."""
    if groups == 1:
        return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    cig, og = a.shape[-1] // groups, g.shape[-1] // groups
    dw = np.empty((cig, g.shape[-1]), dtype=a.dtype)
    for c in range(cig):
        for o in range(og):
            dw[c, o::og] = (a[..., c::cig] * g[..., o::og]).sum(axis=(0, 1, 2))
    return dw


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
           pad: tuple[int, int, int, int] = (0, 0, 0, 0), groups: int = 1) -> Tensor:
    """Cross-correlation with implicit zero padding (top, bottom, left, right).

    A sum over kernel taps: tap (i, j) multiplies the rectangle of real input
    pixels it sees by w[i, j] into the matching output rectangle, so products
    with padding are skipped and outputs that see only padding get the bias.
    """
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

    rows, cols = _tap_spans(oh, h, pt, kh, stride), _tap_spans(ow, wd, pl, kw, stride)
    taps = [(i, j, r, c) for i, r in enumerate(rows) if r for j, c in enumerate(cols) if c]
    y = np.full((n, oh, ow, cout), 0 if b is None else b.data, dtype=x.data.dtype)
    for i, j, (ro, ri), (co, ci) in taps:
        _tap_madd(y[:, ro, co], x.data[:, ri, ci], w.data[i, j], groups)
    out = Tensor(y)

    def bw(g):
        dx = np.zeros(x.shape, dtype=x.data.dtype)
        dw = np.zeros(w.shape, dtype=w.data.dtype)
        # per tap, the (cout/groups, cin) weights that map output grads to input grads
        w_back = w.data.reshape(kh, kw, cig, groups, -1).transpose(0, 1, 4, 3, 2)
        for i, j, (ro, ri), (co, ci) in taps:
            _tap_madd(dx[:, ri, ci], g[:, ro, co], w_back[i, j].reshape(-1, cin), groups)
            dw[i, j] = _tap_weight_grad(x.data[:, ri, ci], g[:, ro, co], groups)
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
