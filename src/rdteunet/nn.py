"""Standard layers over the tensor core: convolution with arbitrary
asymmetric padding and stride, 2x2 stride-2 transposed convolution, average
pooling, batch/layer norm, and residual blocks. The channel MLP (two 1x1
convolutions) runs through conv2d; the transposed convolution is the adjoint
of the 2x2 stride-2 conv2d, computed on that conv's kernel taps.

Both norms run one standardize op, forward and backward: batch norm over
(N, H, W) per channel, layer norm over the channels at each position. Batch
norm adds only its running statistics and their eval-mode path. Every sum
over a map's positions or channels, in the norms and in the affine and bias
gradients, is one BLAS matrix-vector product (`tensor.gemv_sum`).

Feature maps are NHWC; conv weights are (kh, kw, cin, cout); convolution is
cross-correlation (no kernel flip), summed over kernel taps with implicit
padding, so it costs only the products that touch real pixels. A tap is one
GEMM. Average pooling sums its window over the same taps (`tap_plan`).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import (
    ConfigError,
    ParamStore,
    ShapeError,
    Tensor,
    _rec,
    add,
    relu,
    silu,
)


def kaiming_uniform(shape, fan_in: int, gain: float, window=None) -> T.Uniform:
    """Fan-in uniform init with selectable variance gain, declared for the
    store to draw over `shape`, keeping `window` of it (all when None).

    gain=2 is the ReLU-calibrated setting for layers a norm follows anyway;
    norm-free layers use gain=1 so the unnormalized conv chain neither
    explodes nor collapses with depth.
    """
    return T.Uniform(shape, float(np.sqrt(3.0 * gain / fan_in)), window)


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


def tap_plan(h: int, w: int, kh: int, kw: int, pad: tuple[int, int, int, int],
             stride: int = 1) -> tuple[int, int, list]:
    """The (oh, ow) output extent of a kh x kw conv over an h x w input with
    pads (top, bottom, left, right), and its taps in row-major kernel order.

    A tap is (i, j, out, src): the NHWC index tuples of the outputs kernel
    offset (i, j) reaches and of the input pixels it reads there. Taps that
    see only padding are left out.
    """
    pt, pb, pl, pr = pad
    oh = conv_out_extent(h, pt, pb, kh, stride)
    ow = conv_out_extent(w, pl, pr, kw, stride)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv output extent {oh}x{ow} < 1 for input {h}x{w}, kernel {kh}x{kw}, "
            f"pad {pad}, stride {stride}")
    rows = [(i, r) for i, r in enumerate(_tap_spans(oh, h, pt, kh, stride)) if r]
    cols = [(j, c) for j, c in enumerate(_tap_spans(ow, w, pl, kw, stride)) if c]
    return oh, ow, [(i, j, (slice(None), ro, co), (slice(None), ri, ci))
                    for i, (ro, ri) in rows for j, (co, ci) in cols]


def _tap_madd(out: np.ndarray, a: np.ndarray, wt: np.ndarray) -> None:
    """out += (..., cin) inputs times one tap's (cin, cout) weights, as one GEMM."""
    out += (a.reshape(-1, wt.shape[0]) @ wt).reshape(out.shape)


def _tap_weight_grad(out: np.ndarray, a: np.ndarray, g: np.ndarray) -> None:
    """Write one tap's (cin, cout) weight gradient, from its inputs and output
    grads, into `out`."""
    np.matmul(a.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]), out=out)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
           pad: tuple[int, int, int, int] = (0, 0, 0, 0)) -> Tensor:
    """Cross-correlation with implicit zero padding (top, bottom, left, right).

    A sum over kernel taps: tap (i, j) multiplies the rectangle of real input
    pixels it sees by w[i, j] into the matching output rectangle, as one GEMM,
    so products with padding are skipped and outputs that see only padding
    get the bias. The backward's weight-gradient GEMMs are one `param_grad`
    job, which runs on the worker when w has a grad slot.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d expects NHWC input, got shape {x.shape}")
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d expects (kh,kw,cin,cout) weights, got {w.shape}")
    if stride < 1:
        raise ConfigError(f"conv2d stride must be >= 1, got {stride}")
    n, h, wd, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if wcin != cin:
        raise ShapeError(f"weight expects {wcin} input channels but input has {cin}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")

    oh, ow, taps = tap_plan(h, wd, kh, kw, pad, stride)
    xa, wa, w_node = x.data, w.data, w.node
    y = np.full((n, oh, ow, cout), 0 if b is None else b.data, dtype=xa.dtype)
    for i, j, out, src in taps:
        _tap_madd(y[out], xa[src], wa[i, j])
    has_bias = b is not None

    def bw(g):
        def weight_grad(dw):
            if len(taps) < kh * kw:  # taps that see no pixel get zeros
                dw.fill(0)
            for i, j, out, src in taps:
                _tap_weight_grad(dw[i, j], xa[src], g[out])

        dw = T.param_grad(w_node, wa, weight_grad)  # on the worker when it is w's grad slot
        dx = np.zeros(xa.shape, dtype=xa.dtype)
        for i, j, out, src in taps:
            _tap_madd(dx[src], g[out], wa[i, j].T)
        if not has_bias:
            return dx, dw
        return dx, dw, T.gemv_sum(g, (0, 1, 2))

    return _rec(Tensor(y), (x, w, b) if has_bias else (x, w), bw)


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2x2 stride-2 transposed convolution: doubles H and W.

    The adjoint of the 2x2 stride-2 conv2d from (2h, 2w, cout) to (h, w, cin)
    with the same (2, 2, cout, cin) weights, computed on that conv's taps: the
    forward is its input gradient, the input gradient is its forward.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose expects NHWC input, got {x.shape}")
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose expects (kh,kw,cout,cin) weights, got {w.shape}")
    kh, kw, cout, cin = w.shape
    if (kh, kw) != (2, 2):
        raise ConfigError(f"only the 2x2 stride-2 configuration is supported, got kernel {kh}x{kw}")
    n, h, wd, cx = x.shape
    if cx != cin:
        raise ShapeError(f"input has {cx} channels, weight expects {cin}")
    if b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")

    _, _, taps = tap_plan(2 * h, 2 * wd, 2, 2, (0, 0, 0, 0), 2)
    xa, wa, w_node = x.data, w.data, w.node
    y = np.full((n, 2 * h, 2 * wd, cout), b.data, dtype=xa.dtype)
    for i, j, out, src in taps:
        _tap_madd(y[src], xa[out], wa[i, j].T)

    def bw(g):
        def weight_grad(dw):  # every one of the four taps is live
            for i, j, out, src in taps:
                _tap_weight_grad(dw[i, j], g[src], xa[out])

        dw = T.param_grad(w_node, wa, weight_grad)  # on the worker when it is w's grad slot
        dx = np.zeros_like(xa)
        for i, j, out, src in taps:
            _tap_madd(dx[out], g[src], wa[i, j])
        return dx, dw, T.gemv_sum(g, (0, 1, 2))

    return _rec(Tensor(y), (x, w, b), bw)


# ---------------------------------------------------------------------------
# pooling

def avg_pool(x: Tensor, k: int) -> Tensor:
    """Stride-1 same-size average pooling: the sum of each k x k window's real
    pixels, added over the window offsets in conv2d's tap order, times
    1/(their count), so border windows divide by the true pixel count. The
    backward spreads each output's g/count over its window."""
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"same-padding average pooling needs an odd k >= 1, got {k}")
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool expects NHWC input, got {x.shape}")
    shape, dt = x.shape, x.data.dtype
    p = k // 2
    _, _, taps = tap_plan(*shape[1:3], k, k, (p, p, p, p))
    counts = np.zeros((1,) + shape[1:3] + (1,))  # per output, the taps that reach it
    sums = np.zeros(shape, dtype=dt)
    for _, _, out, src in taps:
        counts[out] += 1
        sums[out] += x.data[src]
    inv = (1.0 / counts).astype(dt)

    def bw(g):
        gi = g * inv
        dx = np.zeros(shape, dtype=dt)
        for _, _, out, src in taps:
            dx[src] += gi[out]
        return (dx,)

    return _rec(Tensor(sums * inv), (x,), bw)


# ---------------------------------------------------------------------------
# normalization

NORM_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-estimate update


def _standardize(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple[int, ...]):
    """gamma * (x - mean) / sqrt(var + NORM_EPS) + beta, with mean and variance
    over `axes` (every axis but the channels, or the channels alone) and the
    affine per channel; also returns the mean and variance. Every sum, forward
    and backward, is one `gemv_sum`."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"norm affine shape mismatch for {c} channels")
    count = math.prod(x.shape[a] for a in axes)
    mean = T.gemv_sum(x.data, axes) / count
    xh = x.data - mean
    var = T.gemv_sum(xh * xh, axes) / count
    ivar = 1.0 / np.sqrt(var + x.data.dtype.type(NORM_EPS))
    xh *= ivar
    ga = gamma.data
    out = Tensor(ga * xh + beta.data)
    param_axes = tuple(range(x.data.ndim - 1))

    def bw(g):
        dxh = g * ga
        m1 = T.gemv_sum(dxh, axes) / count
        m2 = T.gemv_sum(dxh * xh, axes) / count
        dx = ivar * (dxh - m1 - xh * m2)
        return dx, T.gemv_sum(g * xh, param_axes), T.gemv_sum(g, param_axes)

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
        running_mean[...] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        running_var[...] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
        return out

    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"norm affine shape mismatch for {c} channels")
    ivar = 1.0 / np.sqrt(running_var + x.data.dtype.type(NORM_EPS))
    xh = (x.data - running_mean) * ivar
    ga = gamma.data

    def bw_eval(g):
        return (g * ga * ivar, T.gemv_sum(g * xh, (0, 1, 2)), T.gemv_sum(g, (0, 1, 2)))

    return _rec(Tensor(ga * xh + beta.data), (x, gamma, beta), bw_eval)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Standardize the channel axis at each spatial position, then affine."""
    return _standardize(x, gamma, beta, (-1,))[0]


# ---------------------------------------------------------------------------
# parameterized layer wrappers

class Conv2d:
    """Convolution layer whose weights live in a ParamStore under `prefix`.

    Given the (h, w) `extent` of every input it will see, the layer keeps
    only the rectangle of kernel taps from the first to the last row and
    column that meets a pixel at that extent, and shrinks its pads by the
    rows and columns it trims. The trimmed taps multiply only padding, so
    conv2d skips them and they get a zero gradient: the output, the input
    gradient and every kept weight gradient are bit-identical to the full
    kernel's. The init keeps the full kernel's fan-in bound and draws the
    full kernel, keeping the live window, so kept weights match too. At
    another extent other taps are live, so such an input is refused.
    """

    def __init__(self, store: ParamStore, prefix: str, cin: int, cout: int, kh: int,
                 kw: int | None = None, *,
                 stride: int = 1, pad="same", bias: bool = True,
                 init_gain: float = 1.0, extent: tuple[int, int] | None = None):
        kw = kh if kw is None else kw
        if pad == "same":
            pt, pb = _same_pad(kh)
            pl, pr = _same_pad(kw)
            pad = (pt, pb, pl, pr)
        elif pad == "valid":
            pad = (0, 0, 0, 0)
        elif isinstance(pad, str):
            raise ConfigError(f"{prefix}: pad must be 'same', 'valid' or four ints, got {pad!r}")
        if stride < 1:
            raise ConfigError(f"{prefix}: stride must be >= 1, got {stride}")
        self.stride = stride
        self.pad = tuple(pad)
        self.extent = None if extent is None else tuple(extent)
        window = None
        if extent is not None:
            _, _, taps = tap_plan(*extent, kh, kw, self.pad, stride)
            if not taps:
                raise ConfigError(f"{prefix}: no tap of a {kh}x{kw} kernel with pads "
                                  f"{self.pad} sees a pixel of an input of extent {extent}")
            i, j = [t[0] for t in taps], [t[1] for t in taps]
            rows, cols = slice(min(i), max(i) + 1), slice(min(j), max(j) + 1)
            window = (rows, cols, slice(None), slice(None))
            pt, pb, pl, pr = self.pad
            self.pad = (pt - rows.start, pb - (kh - rows.stop),
                        pl - cols.start, pr - (kw - cols.stop))
        fan_in = kh * kw * cin
        self.w_name = f"{prefix}.w"
        self.b_name = f"{prefix}.b" if bias else None
        store.add(self.w_name, kaiming_uniform((kh, kw, cin, cout), fan_in, init_gain, window))
        if bias:
            store.add(self.b_name, T.Fill((cout,), 0.0))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        if self.extent is not None and x.shape[1:3] != self.extent:
            raise ShapeError(f"{self.w_name} keeps the taps live at input extent "
                             f"{self.extent}, got input {x.shape}")
        b = self.store.value(self.b_name) if self.b_name else None
        return conv2d(x, self.store.value(self.w_name), b,
                      stride=self.stride, pad=self.pad)


class ConvTranspose2x2:
    """2x2 stride-2 upsampling conv; doubles spatial dims."""

    def __init__(self, store: ParamStore, prefix: str, cin: int, cout: int):
        self.w_name = f"{prefix}.w"
        self.b_name = f"{prefix}.b"
        store.add(self.w_name, kaiming_uniform((2, 2, cout, cin), cin, gain=1.0))
        store.add(self.b_name, T.Fill((cout,), 0.0))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_transpose(x, self.store.value(self.w_name), self.store.value(self.b_name))


class BatchNorm:
    """Batch norm whose affine lives in a ParamStore and running statistics
    in its buffers."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.g_name = f"{prefix}.gamma"
        self.b_name = f"{prefix}.beta"
        self.rm_name = f"{prefix}.running_mean"
        self.rv_name = f"{prefix}.running_var"
        store.add(self.g_name, T.Fill((c,), 1.0))
        store.add(self.b_name, T.Fill((c,), 0.0))
        store.add_buffer(self.rm_name, T.Fill((c,), 0.0))
        store.add_buffer(self.rv_name, T.Fill((c,), 1.0))
        self.store = store

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        s = self.store
        return batch_norm(x, s.value(self.g_name), s.value(self.b_name),
                          s.buffer(self.rm_name), s.buffer(self.rv_name), training)


class LayerNorm:
    """Layer norm whose affine lives in a ParamStore."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.g_name = f"{prefix}.gamma"
        self.b_name = f"{prefix}.beta"
        store.add(self.g_name, T.Fill((c,), 1.0))
        store.add(self.b_name, T.Fill((c,), 0.0))
        self.store = store

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.store.value(self.g_name), self.store.value(self.b_name))


class Mlp:
    """Per-position channel MLP: 1x1 conv to 4 * c, SiLU, 1x1 conv back to c."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.fc1 = Conv2d(store, f"{prefix}.fc1", c, 4 * c, 1, pad="valid")
        self.fc2 = Conv2d(store, f"{prefix}.fc2", 4 * c, c, 1, pad="valid")

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(silu(self.fc1(x)))


class ResBlock:
    """Two same-pad 3x3 convs with BN/ReLU and an identity shortcut:
    y = ReLU(BN(conv(ReLU(BN(conv(x))))) + x); channels preserved.
    The convs have no bias: the BN's mean subtraction would cancel it."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.conv1 = Conv2d(store, f"{prefix}.conv1", c, c, 3, bias=False, init_gain=2.0)
        self.bn1 = BatchNorm(store, f"{prefix}.bn1", c)
        self.conv2 = Conv2d(store, f"{prefix}.conv2", c, c, 3, bias=False, init_gain=2.0)
        self.bn2 = BatchNorm(store, f"{prefix}.bn2", c)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = relu(self.bn1(self.conv1(x), training))
        return relu(add(self.bn2(self.conv2(h), training), x))
