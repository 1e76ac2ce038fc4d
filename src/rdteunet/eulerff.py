"""Euler-form skip fusion.

Directional convs produce an amplitude (softplus, so A >= 0) and a bounded
phase (pi*tanh, clamped strictly inside (-pi, pi)); features expand into
real/imaginary pairs A*cos(theta) || A*sin(theta). A grouped conv with one
group per channel then sees exactly its own (real, imaginary) pair, a 1x1
conv covers the channel dimension, and 1x1 fusions reduce the concatenated
streams. The imaginary unit is purely structural: channel concatenation, no
complex arithmetic.
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

    @property
    def interleave(self) -> np.ndarray:
        """Channel order pairing real/imaginary channels: (re_0, im_0, re_1, im_1, ...)."""
        return np.arange(2 * self.c).reshape(2, self.c).T.reshape(-1)

    def amplitude(self, x: Tensor, axis: str) -> Tensor:
        return T.softplus(self.amp[axis](x))

    def phase_angle(self, x: Tensor, axis: str) -> Tensor:
        dt = x.data.dtype
        lim = _phase_limit(dt)
        raw = T.tanh(self.phase[axis](x)) * float(dt.type(np.pi))
        return T.clip(raw, -lim, lim)

    def expand(self, x: Tensor, axis: str) -> Tensor:
        """Euler expansion along one axis: concat(A*cos(theta), A*sin(theta))."""
        a = self.amplitude(x, axis)
        theta = self.phase_angle(x, axis)
        return T.concat([T.mul(a, T.cos(theta)), T.mul(a, T.sin(theta))])

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.c:
            raise ShapeError(f"stream built for {self.c} channels, got {x.shape[-1]}")
        t_dir = {}
        for axis in (HORIZONTAL, VERTICAL):
            expanded = self.expand(x, axis)
            paired = T.take_channels(expanded, self.interleave)
            t_dir[axis] = self.group[axis](paired)
        t_c = T.silu(self.chan(x))
        return self.fuse(T.concat([x, t_dir[HORIZONTAL], t_dir[VERTICAL], t_c]))


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
