"""Euler-form skip fusion.

Directional convs produce an amplitude (softplus, so A >= 0) and a bounded
phase (pi*tanh, clamped strictly inside (-pi, pi)); `euler_pairs` expands
each channel k into the pair A_k*cos(theta_k), A_k*sin(theta_k) at channels
2k and 2k+1 as one tape op, whose backward reuses the forward's cos and sin.
A grouped conv with one group per channel then sees exactly its own (real,
imaginary) pair, a 1x1 conv covers the channel dimension, and 1x1 fusions
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


def _phase_limit(dtype) -> float:
    # largest representable value strictly below pi in the working dtype
    pi = dtype.type(np.pi)
    if float(pi) >= np.pi:
        pi = np.nextafter(pi, dtype.type(0.0))
    return float(pi)


def _phase(v: np.ndarray) -> np.ndarray:
    """theta = pi * tanh(v) of the phase conv's output v, clamped to the
    dtype's largest values strictly inside (-pi, pi)."""
    lim = _phase_limit(v.dtype)
    return np.clip(np.tanh(v) * v.dtype.type(np.pi), -lim, lim)


def euler_pairs(u: Tensor, v: Tensor) -> Tensor:
    """The Euler expansion of amplitude logits u and phase logits v, both
    (N, H, W, c), as one tape op: output channels 2k and 2k+1 hold
    A_k*cos(theta_k) and A_k*sin(theta_k), with A = softplus(u) and
    theta = `_phase(v)`, the channel pairs a one-group-per-channel conv reads.

    The backward is closed form and keeps only cos, sin and the output:
    dA = g_re*cos + g_im*sin, dtheta = g_im*re - g_re*im, du = dA*sigmoid(u),
    and dv = dtheta*pi*(1 - tanh(v)^2) where the clamp is not engaged, zero
    where it is.
    """
    if u.shape != v.shape:
        raise ShapeError(f"euler pairs: amplitude {u.shape} and phase {v.shape} differ")
    a = T._softplus(u.data)
    theta = _phase(v.data)
    cos, sin = np.cos(theta), np.sin(theta)
    flat = np.empty(u.shape[:-1] + (2 * u.shape[-1],), dtype=u.data.dtype)
    pairs = flat.reshape(u.shape + (2,))
    np.multiply(a, cos, out=pairs[..., 0])
    np.multiply(a, sin, out=pairs[..., 1])
    out = Tensor(flat)

    def bw(g):
        g = g.reshape(pairs.shape)
        g_re, g_im = g[..., 0], g[..., 1]
        du = g_re * cos
        du += g_im * sin
        du *= T._sigmoid(u.data)
        dv = g_im * pairs[..., 0]
        dv -= g_re * pairs[..., 1]
        pi = v.data.dtype.type(np.pi)
        t = np.tanh(v.data)
        dv *= np.abs(t * pi) < _phase_limit(v.data.dtype)  # the clamp's zero gradient
        dv *= pi * (1 - t * t)
        return du, dv

    return T._rec(out, (u, v), bw)


class EulerStream:
    """One fusion stream: directional Euler expansions + channel path + 1x1 fuse."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.c = c
        mk = lambda name, kh, kw, cin, cout, groups=1: nn.Conv2d(
            store, f"{prefix}.{name}", cin, cout, kh, kw, pad="same", groups=groups)
        self.amp = {HORIZONTAL: mk("amp_h", 1, 3, c, c), VERTICAL: mk("amp_v", 3, 1, c, c)}
        self.phase = {HORIZONTAL: mk("phase_h", 1, 3, c, c), VERTICAL: mk("phase_v", 3, 1, c, c)}
        self.group = {HORIZONTAL: mk("group_h", 1, 3, 2 * c, c, groups=c),
                      VERTICAL: mk("group_v", 3, 1, 2 * c, c, groups=c)}
        self.chan = mk("chan", 1, 1, c, c)
        self.fuse = mk("fuse", 1, 1, 4 * c, c)

    def amplitude(self, x: Tensor, axis: str) -> Tensor:
        """The amplitudes A the expansion along `axis` uses, as values for
        inspection: no tape entry of their own."""
        return Tensor(T._softplus(self.amp[axis](x).data))

    def phase_angle(self, x: Tensor, axis: str) -> Tensor:
        """The phases theta the expansion along `axis` uses, as values for
        inspection: no tape entry of their own."""
        return Tensor(_phase(self.phase[axis](x).data))

    def expand(self, x: Tensor, axis: str) -> Tensor:
        """Euler expansion along one axis: channels 2k, 2k+1 hold
        A_k*cos(theta_k), A_k*sin(theta_k)."""
        return euler_pairs(self.amp[axis](x), self.phase[axis](x))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.c:
            raise ShapeError(f"stream built for {self.c} channels, got {x.shape[-1]}")
        t_h, t_v = (self.group[axis](self.expand(x, axis)) for axis in (HORIZONTAL, VERTICAL))
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
