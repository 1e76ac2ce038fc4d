"""Standard layers over the tensor core: convolution with arbitrary
asymmetric padding / stride / groups, 2x2 stride-2 transposed convolution,
batch/layer norm, and residual blocks. Average pooling (a depthwise
ones-kernel convolution) and the channel MLP (two 1x1 convolutions) run
through the same conv2d; the transposed convolution is the adjoint of the
2x2 stride-2 conv2d, computed on that conv's kernel taps.

Both norms run one standardize op, forward and backward: batch norm over
(N, H, W) per channel, layer norm over the channels at each position. Batch
norm adds only its running statistics and their eval-mode path.

Feature maps are NHWC; conv weights are (kh, kw, cin/groups, cout);
convolution is cross-correlation (no kernel flip), summed over kernel taps
with implicit padding, so it costs only the products that touch real pixels.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import (
    ConfigError,
    ParamStore,
    ShapeError,
    Tensor,
    _rec,
    add,
    mul,
    relu,
    silu,
)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, gain: float) -> Tensor:
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

    The adjoint of the 2x2 stride-2 conv2d from (2h, 2w, cout) to (h, w, cin)
    with the same (2, 2, cout, cin) weights, computed on that conv's taps: the
    forward is its input gradient, the input gradient is its forward.
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

    rows, cols = _tap_spans(h, 2 * h, 0, 2, 2), _tap_spans(wd, 2 * wd, 0, 2, 2)
    taps = [(i, j, r, c) for i, r in enumerate(rows) for j, c in enumerate(cols)]
    y = np.full((n, 2 * h, 2 * wd, cout), 0 if b is None else b.data, dtype=x.data.dtype)
    for i, j, (ro, ri), (co, ci) in taps:
        _tap_madd(y[:, ri, ci], x.data[:, ro, co], w.data[i, j].T, 1)
    out = Tensor(y)

    def bw(g):
        dx = np.zeros_like(x.data)
        dw = np.zeros_like(w.data)
        for i, j, (ro, ri), (co, ci) in taps:
            _tap_madd(dx[:, ro, co], g[:, ri, ci], w.data[i, j], 1)
            dw[i, j] = _tap_weight_grad(g[:, ri, ci], x.data[:, ro, co], 1)
        if b is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 1, 2))

    inputs = (x, w) if b is None else (x, w, b)
    return _rec(out, inputs, bw)


# ---------------------------------------------------------------------------
# pooling

def _window_counts(size: int, p: int) -> np.ndarray:
    """Per position on one axis, how many pixels of its 2p+1 window are in the image."""
    i = np.arange(size)
    return np.minimum(i + p, size - 1) - np.maximum(i - p, 0) + 1


def avg_pool(x: Tensor, k: int) -> Tensor:
    """Stride-1 same-size average pooling: a depthwise ones-kernel conv2d times
    1/(window pixel count), so border windows divide by the true pixel count."""
    if k % 2 == 0:
        raise ConfigError(f"same-padding average pooling needs odd k, got {k}")
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool expects NHWC input, got {x.shape}")
    n, h, wd, c = x.shape
    p = k // 2
    sums = conv2d(x, Tensor(np.ones((k, k, 1, c))), pad=(p, p, p, p), groups=c)
    inv = 1.0 / np.outer(_window_counts(h, p), _window_counts(wd, p))
    return mul(sums, Tensor(np.broadcast_to(inv[None, :, :, None], x.shape)))


# ---------------------------------------------------------------------------
# normalization

NORM_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-estimate update


def _standardize(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple[int, ...]):
    """gamma * (x - mean) / sqrt(var + NORM_EPS) + beta, with mean and variance
    over `axes` and the affine per channel; also returns the mean and variance."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"norm affine shape mismatch for {c} channels")
    mean = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    ivar = 1.0 / np.sqrt(var + x.data.dtype.type(NORM_EPS))
    xh = (x.data - mean) * ivar
    out = Tensor(gamma.data * xh + beta.data)
    param_axes = tuple(range(x.data.ndim - 1))

    def bw(g):
        dxh = g * gamma.data
        m1 = dxh.mean(axis=axes, keepdims=True)
        m2 = (dxh * xh).mean(axis=axes, keepdims=True)
        dx = ivar * (dxh - m1 - xh * m2)
        return dx, (g * xh).sum(axis=param_axes), g.sum(axis=param_axes)

    return _rec(out, (x, gamma, beta), bw), mean, var


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel batch norm over (N, H, W).

    Training mode standardizes by batch statistics and folds them into the
    running estimates in place; eval mode uses the running estimates.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects NHWC input, got {x.shape}")
    if training:
        if x.shape[0] * x.shape[1] * x.shape[2] == 1:
            raise ShapeError("batch statistics undefined for a single element (N*H*W == 1)")
        out, mean, var = _standardize(x, gamma, beta, (0, 1, 2))
        running_mean[...] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean[0, 0, 0]
        running_var[...] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var[0, 0, 0]
        return out

    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"norm affine shape mismatch for {c} channels")
    ivar = 1.0 / np.sqrt(running_var + x.data.dtype.type(NORM_EPS))
    xh = (x.data - running_mean) * ivar
    out = Tensor(gamma.data * xh + beta.data)

    def bw_eval(g):
        return g * gamma.data * ivar, (g * xh).sum(axis=(0, 1, 2)), g.sum(axis=(0, 1, 2))

    return _rec(out, (x, gamma, beta), bw_eval)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Standardize the channel axis at each spatial position, then affine."""
    return _standardize(x, gamma, beta, (-1,))[0]


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
    """Batch norm whose affine lives in a ParamStore and running statistics
    in its buffers."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.g_name = f"{prefix}.gamma"
        self.b_name = f"{prefix}.beta"
        store.add(self.g_name, T.tensor_new((c,), 1.0))
        store.add(self.b_name, T.zeros((c,)))
        self.rm = store.add_buffer(f"{prefix}.running_mean", np.zeros(c))
        self.rv = store.add_buffer(f"{prefix}.running_var", np.ones(c))
        self.store = store

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm(x, self.store.value(self.g_name), self.store.value(self.b_name),
                          self.rm, self.rv, training)


class LayerNorm:
    """Layer norm whose affine lives in a ParamStore."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.g_name = f"{prefix}.gamma"
        self.b_name = f"{prefix}.beta"
        store.add(self.g_name, T.tensor_new((c,), 1.0))
        store.add(self.b_name, T.zeros((c,)))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.store.value(self.g_name), self.store.value(self.b_name))


class Mlp:
    """Per-position channel MLP: 1x1 conv to 4 * c, SiLU, 1x1 conv back to c."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator, c: int):
        self.fc1 = Conv2d(store, f"{prefix}.fc1", rng, c, 4 * c, 1, pad="valid")
        self.fc2 = Conv2d(store, f"{prefix}.fc2", rng, 4 * c, c, 1, pad="valid")

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(silu(self.fc1(x)))


class ResBlock:
    """Two same-pad 3x3 convs with BN/ReLU and an identity shortcut:
    y = ReLU(BN(conv(ReLU(BN(conv(x))))) + x); channels preserved.
    The convs have no bias: the BN's mean subtraction would cancel it."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator, c: int):
        self.conv1 = Conv2d(store, f"{prefix}.conv1", rng, c, c, 3, bias=False, init_gain=2.0)
        self.bn1 = BatchNorm(store, f"{prefix}.bn1", c)
        self.conv2 = Conv2d(store, f"{prefix}.conv2", rng, c, c, 3, bias=False, init_gain=2.0)
        self.bn2 = BatchNorm(store, f"{prefix}.bn2", c)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = relu(self.bn1(self.conv1(x), training))
        return relu(add(self.bn2(self.conv2(h), training), x))
