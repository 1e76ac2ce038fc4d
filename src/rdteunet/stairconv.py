"""StairConv: one-sided ("stair") padded convolution branches at two kernel
scales, concatenated and fused by a 2x2 valid convolution.

A horizontal instance shifts its padding left/right, a vertical one up/down.
The padding is never built: each branch is an nn.Conv2d whose pad is its
stair extents, and nn.conv2d skips the taps that would multiply padding
zeros. Every branch output is (h+1, w+1); the 2x2 fusion restores (h, w),
so the operator is shape-preserving. A StairConv is built for one input
extent (h, w), with h, w >= 2.
"""

from __future__ import annotations

import math

from . import nn
from . import tensor as T
from .tensor import ConfigError, ParamStore, ShapeError, Tensor

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

_SIDES = {
    HORIZONTAL: ("right", "left"),
    VERTICAL: ("up", "down"),
}


def stair_pads(axis: str, level: int, side: str, k: int) -> tuple[int, int, int, int]:
    """(top, bottom, left, right) zero padding of one stair branch: level*k on
    one side of the shift axis, split floor/ceil along the orthogonal axis.
    The padded input is (h + level*k, w + level*k)."""
    if axis not in _SIDES:
        raise ConfigError(f"axis must be horizontal or vertical, got {axis!r}")
    if level not in (1, 2):
        raise ConfigError(f"stair level must be 1 or 2, got {level}")
    if side not in _SIDES[axis]:
        raise ConfigError(f"side {side!r} invalid for {axis} stair padding")
    total = level * k
    before, after = total // 2, total - total // 2
    if axis == HORIZONTAL:
        return (before, after) + ((0, total) if side == "right" else (total, 0))
    return ((total, 0) if side == "up" else (0, total)) + (before, after)


class StairConv:
    """Four stair-padded conv branches (two scales x two sides) plus fusion.
    Each branch has ceil(cout / 4) channels; the fusion conv maps their
    concat to cout.

    Each branch is an nn.Conv2d layer built with its stair_pads extents and
    the input `extent` (h, w). On a small map, a level-2 kernel has rows or
    columns on its padded side that meet no pixel (at 4x4 with k=3, two of
    the six); the branch stores only the live rectangle of taps, with pads
    reduced to match. This is exact, not an architecture change: the
    trimmed taps multiplied only padding, which conv2d already skipped, and
    got a zero gradient on every step, so Adam never moved them. The
    output, the input gradient and every kept weight and its gradient are
    bit-identical to the full stair kernels', and so is an unclipped
    training trajectory; a global gradient norm sums the smaller arena in
    other blocks and may round differently in its last bits. The init draws
    the full kernel and keeps the live window. At any other input extent
    other taps would be live, so the branches refuse such an input with a
    ShapeError.

    No conv has a bias: the BN after it would cancel it.
    """

    def __init__(self, store: ParamStore, prefix: str, axis: str, cin: int,
                 cout: int, extent: tuple[int, int], k: int = 3):
        if axis not in _SIDES:
            raise ConfigError(f"axis must be horizontal or vertical, got {axis!r}")
        if k < 1:
            raise ConfigError(f"base kernel extent must be >= 1, got {k}")
        h, w = extent
        if h < 2 or w < 2:
            raise ConfigError(f"StairConv needs spatial extents >= 2, got {h}x{w}")
        self.cin = cin
        cb = self.c_branch = math.ceil(cout / 4)
        self.branches = []
        for level in (1, 2):
            for side in _SIDES[axis]:
                name = f"{prefix}.b{level}_{side}"
                conv = nn.Conv2d(store, f"{name}.conv", cin, cb, level * k,
                                 pad=stair_pads(axis, level, side, k), bias=False,
                                 init_gain=2.0, extent=(h, w))
                self.branches.append((conv, nn.BatchNorm(store, f"{name}.bn", cb)))
        self.fuse_conv = nn.Conv2d(store, f"{prefix}.fuse.conv", 4 * cb, cout,
                                   2, pad="valid", bias=False, init_gain=2.0)
        self.fuse_bn = nn.BatchNorm(store, f"{prefix}.fuse.bn", cout)

    def branch_features(self, x: Tensor, training: bool) -> Tensor:
        """Pre-fusion concat of the four SiLU(BN(Conv(x))) branches."""
        return T.concat([T.silu(bn(conv(x), training)) for conv, bn in self.branches])

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.data.ndim != 4:
            raise ShapeError(f"StairConv expects NHWC input, got {x.shape}")
        if x.shape[-1] != self.cin:
            raise ShapeError(f"StairConv built for {self.cin} channels, got {x.shape[-1]}")
        cat = self.branch_features(x, training)
        return T.silu(self.fuse_bn(self.fuse_conv(cat), training))
