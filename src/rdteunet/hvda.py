"""Horizontal-vertical detail attention and the transformer block around it.

A detail branch runs horizontal and vertical StairConv paths, fuses them
with 1x1/3x3 conv stages and residual adds, and three such branches feed the
Q/K/V projections of a spatial self-attention whose map is the row-softmaxed
outer product of two per-position scalars, one map per sample. Q and K are
(n, hw) maps and V is the (n, hw, c) reshape of the NHWC value map, so the
attended values B @ V reshape straight back to (n, h, w, c). Attention
cost is hw x hw, so a cap keeps it confined to coarse feature maps. The
transformer block's MLP is two 1x1 convolutions (nn.Mlp).
"""

from __future__ import annotations

from . import nn
from . import tensor as T
from .stairconv import HORIZONTAL, VERTICAL, StairConv
from .tensor import ConfigError, ParamStore, ShapeError, Tensor

HW_CAP = 4096  # most positions an attention map may span (a 64x64 map)


class HvdaBranch:
    """StairConv detail extractor producing one fused c-channel map.
    Built for one input `extent` (h, w), which its StairConvs need.
    `reduce` and `deep` have no bias: the BN after each would cancel it."""

    def __init__(self, store: ParamStore, prefix: str, c: int, extent: tuple[int, int]):
        self.stair_h = StairConv(store, f"{prefix}.stair_h", HORIZONTAL, c, c, extent)
        self.stair_v = StairConv(store, f"{prefix}.stair_v", VERTICAL, c, c, extent)
        self.reduce = nn.Conv2d(store, f"{prefix}.reduce", 2 * c, c, 1, pad="valid",
                                bias=False, init_gain=2.0)
        self.bn_reduce = nn.BatchNorm(store, f"{prefix}.bn_reduce", c)
        self.deep = nn.Conv2d(store, f"{prefix}.deep", c, c, 3, pad="same",
                              bias=False, init_gain=2.0)
        self.bn_deep = nn.BatchNorm(store, f"{prefix}.bn_deep", c)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        x_hd = self.stair_h(x, training)
        x_vd = self.stair_v(x, training)
        reduced = T.relu(self.bn_reduce(self.reduce(T.concat([x_hd, x_vd])), training))
        x_cat = T.add(T.add(reduced, x_hd), x_vd)
        x_c = x_cat
        deepened = T.relu(T.add(self.bn_deep(self.deep(x_c), training), x_c))
        return T.add(T.add(deepened, x_hd), x_vd)


def attention_map(q: Tensor, k: Tensor) -> Tensor:
    """Row-softmaxed outer product of two (..., hw) maps: row i weights positions."""
    if q.data.ndim < 1 or q.shape != k.shape:
        raise ShapeError(f"attention_map expects equal (..., hw) maps, got {q.shape}, {k.shape}")
    hw = q.shape[-1]
    scores = T.matmul(T.reshape(q, q.shape + (1,)), T.reshape(k, k.shape[:-1] + (1, hw)))
    return T.softmax_channels(scores)


def attention_from_qkv(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Weight the (..., hw, c) values by the attention map: out[..., i, :] = B[..., i, :] @ V."""
    return T.matmul(attention_map(q, k), v)


class HvdaAttention:
    """Spatial self-attention with detail-branch Q/K/V (or plain GSA-style
    projections when `detail=False`, the ablation substitute), built for one
    input `extent` (h, w). The output carries no residual; the enclosing
    block adds it. `proj_k` has no bias: q_i * b is constant along softmax
    row i, so the softmax would cancel it."""

    def __init__(self, store: ParamStore, prefix: str, c: int, extent: tuple[int, int],
                 detail: bool = True):
        self.c = c
        self.detail = detail
        if detail:
            self.branch_q = HvdaBranch(store, f"{prefix}.branch_q", c, extent)
            self.branch_k = HvdaBranch(store, f"{prefix}.branch_k", c, extent)
            self.branch_v = HvdaBranch(store, f"{prefix}.branch_v", c, extent)
        self.proj_q = nn.Conv2d(store, f"{prefix}.proj_q", c, 1, 1, pad="valid")
        self.proj_k = nn.Conv2d(store, f"{prefix}.proj_k", c, 1, 1, pad="valid",
                                bias=False)
        self.proj_v = nn.Conv2d(store, f"{prefix}.proj_v", c, c, 1, pad="valid")
        self.proj_out = nn.Conv2d(store, f"{prefix}.proj_out", c, c, 1, pad="valid")

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        n, h, w, c = x.shape
        hw = h * w
        if hw > HW_CAP:
            raise ConfigError(
                f"attention map would be {hw}x{hw} (cap {HW_CAP}); "
                "apply this block only at the deep, downsampled stages")
        if self.detail:
            fq = self.branch_q(x, training)
            fk = self.branch_k(x, training)
            fv = self.branch_v(x, training)
        else:
            fq = fk = fv = x
        qm, km, vm = self.proj_q(fq), self.proj_k(fk), self.proj_v(fv)
        o = attention_from_qkv(T.reshape(qm, (n, hw)), T.reshape(km, (n, hw)),
                               T.reshape(vm, (n, hw, c)))
        return self.proj_out(T.reshape(o, (n, h, w, c)))


class DetailsTransformerBlock:
    """Two chained pre-norm submodules: x += attn(LN(x)); x += MLP(LN(x)),
    built for one input `extent` (h, w)."""

    def __init__(self, store: ParamStore, prefix: str, c: int, extent: tuple[int, int],
                 detail: bool = True):
        self.subs = []
        for s in (1, 2):
            ln1 = nn.LayerNorm(store, f"{prefix}.sub{s}.ln1", c)
            attn = HvdaAttention(store, f"{prefix}.sub{s}.attn", c, extent, detail=detail)
            ln2 = nn.LayerNorm(store, f"{prefix}.sub{s}.ln2", c)
            mlp = nn.Mlp(store, f"{prefix}.sub{s}.mlp", c)
            self.subs.append((ln1, attn, ln2, mlp))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        for ln1, attn, ln2, mlp in self.subs:
            x = T.add(x, attn(ln1(x), training))
            x = T.add(x, mlp(ln2(x)))
        return x
