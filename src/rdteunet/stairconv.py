"""StairConv: one-sided ("stair") padded convolution branches at two kernel
scales, concatenated and fused by a 2x2 valid convolution.

A horizontal instance shifts its padding left/right, a vertical one up/down.
Every branch output is (h+1, w+1); the 2x2 fusion restores (h, w), so the
operator is shape-preserving for any input with h, w >= 2.
"""

from __future__ import annotations

import math

import numpy as np

from . import nn
from . import tensor as T
from .tensor import ConfigError, ParamStore, ShapeError, Tensor

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

_SIDES = {
    HORIZONTAL: ("right", "left"),
    VERTICAL: ("up", "down"),
}


def stair_pad(x: Tensor, axis: str, level: int, side: str, k: int) -> Tensor:
    """One-sided zero padding of i*k along the shift axis, split floor/ceil
    along the orthogonal axis. Output is (h + i*k, w + i*k)."""
    if axis not in _SIDES:
        raise ConfigError(f"axis must be horizontal or vertical, got {axis!r}")
    if level not in (1, 2):
        raise ConfigError(f"stair level must be 1 or 2, got {level}")
    if side not in _SIDES[axis]:
        raise ConfigError(f"side {side!r} invalid for {axis} stair padding")
    total = level * k
    before, after = total // 2, total - total // 2
    if axis == HORIZONTAL:
        pl, pr = (0, total) if side == "right" else (total, 0)
        pt, pb = before, after
    else:
        pt, pb = (total, 0) if side == "up" else (0, total)
        pl, pr = before, after
    return T.pad2d(x, (pt, pb, pl, pr))


def _symmetric_pad(x: Tensor, total: int) -> Tensor:
    before, after = total // 2, total - total // 2
    return T.pad2d(x, (before, after, before, after))


class StairConv:
    """Four stair-padded conv branches (two scales x two sides) plus fusion.
    Each branch has ceil(cout / 4) channels; the fusion conv maps their
    concat to cout.

    `padding="symmetric"` keeps the same weights and conv arithmetic but
    centers every branch's padding; it exists as the baseline against which
    the directional response of the stair layout is measured.
    """

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator,
                 axis: str, cin: int, cout: int, k: int = 3, padding: str = "stair"):
        if axis not in _SIDES:
            raise ConfigError(f"axis must be horizontal or vertical, got {axis!r}")
        if k < 1:
            raise ConfigError(f"base kernel extent must be >= 1, got {k}")
        self.axis = axis
        self.k = k
        self.cin = cin
        self.cout = cout
        self.padding = padding
        cb = self.c_branch = math.ceil(cout / 4)
        self.branches = []
        for level in (1, 2):
            for side in _SIDES[axis]:
                name = f"{prefix}.b{level}_{side}"
                conv = nn.Conv2d(store, f"{name}.conv", rng, cin, cb,
                                 level * k, pad="valid", init_gain=2.0)
                bn = nn.BatchNorm(store, f"{name}.bn", cb)
                self.branches.append((level, side, conv, bn))
        self.fuse_conv = nn.Conv2d(store, f"{prefix}.fuse.conv", rng, 4 * cb, cout,
                                   2, pad="valid", init_gain=2.0)
        self.fuse_bn = nn.BatchNorm(store, f"{prefix}.fuse.bn", cout)

    def branch_features(self, x: Tensor, training: bool) -> Tensor:
        """Pre-fusion concat of the four SiLU(BN(Conv(pad(x)))) branches."""
        feats = []
        for level, side, conv, bn in self.branches:
            if self.padding == "stair":
                padded = stair_pad(x, self.axis, level, side, self.k)
            else:
                padded = _symmetric_pad(x, level * self.k)
            feats.append(T.silu(bn(conv(padded), training)))
        return T.concat(feats, axis=-1)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.data.ndim != 4:
            raise ShapeError(f"StairConv expects NHWC input, got {x.shape}")
        n, h, w, c = x.shape
        if h < 2 or w < 2:
            raise ShapeError(f"StairConv needs spatial extents >= 2, got {h}x{w}")
        if c != self.cin:
            raise ShapeError(f"StairConv built for {self.cin} channels, got {c}")
        cat = self.branch_features(x, training)
        return T.silu(self.fuse_bn(self.fuse_conv(cat), training))
