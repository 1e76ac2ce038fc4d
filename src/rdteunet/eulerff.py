"""Euler-form skip fusion.

Directional convs produce an amplitude (softplus, so A >= 0) and a bounded
phase (pi*tanh, clamped strictly inside (-pi, pi)). `euler_pair_conv` is one
tape op that expands each channel k into its pair A_k*cos(theta_k),
A_k*sin(theta_k) and convolves that pair alone with the direction's 1x3 or
3x1 pair kernel, (real, imaginary) weights per tap and channel. The op owns
the pair layout: the real and imaginary parts are two contiguous maps that
never leave it. A 1x1 conv covers the channel dimension, and 1x1 fusions
reduce the concatenated streams. The imaginary unit is purely structural:
channel pairs, no complex arithmetic.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .tensor import ParamStore, ShapeError, Tensor

HORIZONTAL = "h"
VERTICAL = "v"


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def _phase_limit(dtype) -> float:
    # largest representable value strictly below pi in the working dtype
    pi = dtype.type(np.pi)
    if float(pi) >= np.pi:
        pi = np.nextafter(pi, dtype.type(0.0))
    return float(pi)


def _phase(v: np.ndarray) -> np.ndarray:
    """theta = pi * tanh(v) of the phase conv's output v, clamped to the
    dtype's largest values strictly inside (-pi, pi)."""
    return _clamped_phase(np.tanh(v))


def _clamped_phase(t: np.ndarray) -> np.ndarray:
    """`_phase` from t = tanh(v)."""
    lim = _phase_limit(t.dtype)
    return np.clip(t * t.dtype.type(np.pi), -lim, lim)


def _expansion(ua: np.ndarray, va: np.ndarray):
    """tanh(v), cos(theta), sin(theta), re = A*cos(theta) and
    im = A*sin(theta), with A = softplus(u) and theta = `_phase(v)`: the maps
    the forward and the backward of `euler_pair_conv` both build."""
    t = np.tanh(va)
    theta = _clamped_phase(t)
    a, cos, sin = _softplus(ua), np.cos(theta), np.sin(theta)
    return t, cos, sin, a * cos, a * sin


def euler_pair_conv(u: Tensor, v: Tensor, w: Tensor, b: Tensor,
                    pad: tuple[int, int, int, int]) -> Tensor:
    """The Euler expansion of amplitude logits u and phase logits v, both
    (N, H, W, c), and its stride-1 pair conv, as one tape op.

    With A = softplus(u) and theta = `_phase(v)`, the maps re = A*cos(theta)
    and im = A*sin(theta) are convolved channel by channel: output channel k
    is b[k] plus, tap by tap in conv2d's order, re_k*w[i, j, 0, k] and then
    im_k*w[i, j, 1, k] over the pixels the tap sees (`nn.tap_plan`).

    The op keeps only its inputs u, v and the pair weights, and its tap plan.
    Its backward rebuilds A, cos, sin, re and im from u and v with the
    forward's expressions (`_expansion`), so they are bit-equal to the
    forward's, and takes d(re), d(im), dw and db tap by tap. It then closes
    over the expansion: dA = d(re)*cos + d(im)*sin,
    dtheta = d(im)*re - d(re)*im, du = dA*sigmoid(u), and
    dv = dtheta*pi*(1 - tanh(v)^2) where the clamp is not engaged, zero
    where it is.
    """
    if u.shape != v.shape or u.data.ndim != 4:
        raise ShapeError(f"euler pairs: amplitude {u.shape} and phase {v.shape} are not "
                         f"one NHWC shape")
    n, h, wd, c = u.shape
    if w.shape[2:] != (2, c) or b.shape != (c,):
        raise ShapeError(f"euler pair conv: weights {w.shape} and bias {b.shape} do not "
                         f"fit (kh, kw, 2, {c}) and ({c},)")
    kh, kw = w.shape[:2]
    oh, ow, taps = nn.tap_plan(h, wd, kh, kw, pad)

    ua, va, wa = u.data, v.data, w.data
    re, im = _expansion(ua, va)[3:]
    y = np.full((n, oh, ow, c), b.data, dtype=ua.dtype)
    for i, j, out, src in taps:
        y[out] += re[src] * wa[i, j, 0]
        y[out] += im[src] * wa[i, j, 1]

    def bw(g):
        gc = np.ascontiguousarray(g)
        t, cos, sin, re, im = _expansion(ua, va)
        d_re, d_im = np.zeros_like(re), np.zeros_like(im)
        # taps that see no pixel get zeros
        dw = (np.empty if len(taps) == kh * kw else np.zeros)(wa.shape, dtype=wa.dtype)
        for i, j, out, src in taps:
            for m, (part, d_part) in enumerate(((re, d_re), (im, d_im))):
                d_part[src] += gc[out] * wa[i, j, m]
                dw[i, j, m] = np.einsum("nhwk,nhwk->k", part[src], gc[out])
        du = d_re * cos
        du += d_im * sin
        du *= T._sigmoid(ua)
        dv = d_im * re
        dv -= d_re * im
        pi = va.dtype.type(np.pi)
        dv *= np.abs(t * pi) < _phase_limit(va.dtype)  # the clamp's zero gradient
        dv *= pi * (1 - t * t)
        return du, dv, dw, T.gemv_sum(g, (0, 1, 2))

    return T._rec(Tensor(y), (u, v, w, b), bw)


# per axis, the (kh, kw) of its amplitude, phase and pair convs
KERNELS = {HORIZONTAL: (1, 3), VERTICAL: (3, 1)}


class EulerStream:
    """One fusion stream: directional Euler expansions + channel path + 1x1 fuse.
    Each axis' pair kernel, one (real, imaginary) weight pair per tap and
    channel, is a same-pad `nn.Conv2d` from 2 to c channels, `group_{axis}`,
    which `euler_pair_conv` applies (its own `__call__` never runs)."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.c = c
        mk = lambda name, kh, kw, cin, cout: nn.Conv2d(
            store, f"{prefix}.{name}", cin, cout, kh, kw, pad="same")
        self.amp = {axis: mk(f"amp_{axis}", *k, c, c) for axis, k in KERNELS.items()}
        self.phase = {axis: mk(f"phase_{axis}", *k, c, c) for axis, k in KERNELS.items()}
        self.pair = {axis: mk(f"group_{axis}", *k, 2, c) for axis, k in KERNELS.items()}
        self.chan = mk("chan", 1, 1, c, c)
        self.fuse = mk("fuse", 1, 1, 4 * c, c)

    def amplitude(self, x: Tensor, axis: str) -> Tensor:
        """The amplitudes A the expansion along `axis` uses, as values for
        inspection: its conv runs on a throwaway tape, so an active tape
        gets no entry and keeps nothing alive."""
        with T.Tape():
            u = self.amp[axis](x)
        return Tensor(_softplus(u.data))

    def phase_angle(self, x: Tensor, axis: str) -> Tensor:
        """The phases theta the expansion along `axis` uses, as values for
        inspection, recorded on no active tape (see `amplitude`)."""
        with T.Tape():
            v = self.phase[axis](x)
        return Tensor(_phase(v.data))

    def directional(self, x: Tensor, axis: str) -> Tensor:
        """The Euler expansion along one axis, convolved by its pair conv."""
        pair = self.pair[axis]
        return euler_pair_conv(self.amp[axis](x), self.phase[axis](x), *pair.weights(), pair.pad)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.c:
            raise ShapeError(f"stream built for {self.c} channels, got {x.shape[-1]}")
        t_h, t_v = (self.directional(x, axis) for axis in (HORIZONTAL, VERTICAL))
        t_c = T.silu(self.chan(x))
        return self.fuse(T.concat([x, t_h, t_v, t_c]))


class EulerFusion:
    """Fuses a skip tensor and a decoder tensor of identical shape into c channels."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.c = c
        self.stream_skip = EulerStream(store, f"{prefix}.skip", c)
        self.stream_dec = EulerStream(store, f"{prefix}.dec", c)
        self.final = nn.Conv2d(store, f"{prefix}.final", 2 * c, c, 1, pad="valid")

    def __call__(self, x_skip: Tensor, x_dec: Tensor) -> Tensor:
        if x_skip.shape != x_dec.shape:
            raise ShapeError(
                f"euler fusion: skip features {x_skip.shape} and decoder features "
                f"{x_dec.shape} must match")
        f_s = self.stream_skip(x_skip)
        f_d = self.stream_dec(x_dec)
        return self.final(T.concat([f_s, f_d]))


class ConcatFusion:
    """Plain skip connection for the ablation: channel concat + 1x1 reduction."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.conv = nn.Conv2d(store, f"{prefix}.conv", 2 * c, c, 1, pad="valid")

    def __call__(self, x_skip: Tensor, x_dec: Tensor) -> Tensor:
        if x_skip.shape != x_dec.shape:
            raise ShapeError(
                f"skip fusion: skip features {x_skip.shape} and decoder features "
                f"{x_dec.shape} must match")
        return self.conv(T.concat([x_skip, x_dec]))
