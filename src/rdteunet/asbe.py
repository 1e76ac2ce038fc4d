"""Boundary-enhancing input stem.

The stem compresses channels with a 1x1 conv, computes a high-frequency
boundary cue as (features - average-pooled features), adds it to the output
of an adaptive rectangular convolution whose per-position support size is
predicted by a small conv stack, and fuses everything through a final 1x1
conv. The rectangular sampler is an n x n bilinear grid spanning the
predicted (height, width) rectangle; it is differentiable in the inputs, the
shared kernel, and the predicted sizes.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .tensor import ParamStore, ShapeError, Tensor, _rec

GRID = 3  # the sampler's n x n grid
R_MAX = 7  # largest predicted rectangle extent; odd, so a rectangle has a center pixel
POOL_K = 3  # average-pool window of the boundary cue


def _scatter_rows(acc_flat: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    # deterministic per-channel bincount scatter; faster than ufunc.at here
    n_rows, c = acc_flat.shape
    for ch in range(c):
        acc_flat[:, ch] += np.bincount(idx, weights=vals[..., ch].reshape(-1),
                                       minlength=n_rows).astype(acc_flat.dtype, copy=False)


def arconv_sample(x: Tensor, sizes: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Adaptive rectangle sampling + shared-kernel mixing.

    For each position p, an n x n grid spans the sizes[p] = (height, width)
    rectangle centered at p; samples are bilinear with zeros outside the
    image, then mixed by the shared (n, n, c, c_out) kernel, which sets n.
    """
    nb, h, wd, c = x.shape
    if sizes.shape != (nb, h, wd, 2):
        raise ShapeError(f"sizes shape {sizes.shape} != {(nb, h, wd, 2)}")
    n_grid = w.shape[0]
    if n_grid < 2 or w.shape[1] != n_grid or w.shape[2] != c:
        raise ShapeError(f"kernel shape {w.shape} is not an (n, n, {c}, c_out) grid, n >= 2")
    cout = w.shape[3]
    dt = x.data.dtype
    lin = np.linspace(-1.0, 1.0, n_grid, dtype=dt)

    half_h = (sizes.data[..., 0] - 1) * dt.type(0.5)
    half_w = (sizes.data[..., 1] - 1) * dt.type(0.5)
    base_y = np.arange(h, dtype=dt)[None, :, None]
    base_x = np.arange(wd, dtype=dt)[None, None, :]
    # sample coordinates: (nb, h, wd, n, n)
    py = base_y[..., None, None] + half_h[..., None, None] * lin[:, None]
    px = base_x[..., None, None] + half_w[..., None, None] * lin[None, :]

    y0 = np.floor(py)
    x0 = np.floor(px)
    fy = py - y0
    fx = px - x0
    y0i = y0.astype(np.int64)
    x0i = x0.astype(np.int64)

    bidx = np.arange(nb, dtype=np.int64)[:, None, None, None, None]
    corner_vals = []
    corner_weights = []
    corner_flat = []
    xf = x.data.reshape(nb * h * wd, c)
    for dy in (0, 1):
        for dx in (0, 1):
            yi = y0i + dy
            xi = x0i + dx
            valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < wd)
            yc = np.clip(yi, 0, h - 1)
            xc = np.clip(xi, 0, wd - 1)
            flat = (bidx * h + yc) * wd + xc
            v = xf[flat.reshape(-1)].reshape(nb, h, wd, n_grid, n_grid, c)
            v = v * valid[..., None]
            wt = (fy if dy else 1 - fy) * (fx if dx else 1 - fx)
            corner_vals.append(v)
            corner_weights.append(wt)
            corner_flat.append((flat, valid))

    samples = sum(wt[..., None] * v for wt, v in zip(corner_weights, corner_vals))
    out_arr = np.einsum("bhwuvc,uvco->bhwo", samples, w.data, optimize=True) + b.data
    out = Tensor(out_arr)

    def bw(g):
        ds = np.einsum("bhwo,uvco->bhwuvc", g, w.data, optimize=True)
        dw = np.einsum("bhwuvc,bhwo->uvco", samples, g, optimize=True)
        db = g.sum(axis=(0, 1, 2))

        dx_flat = np.zeros_like(xf)
        for wt, (flat, valid), _v in zip(corner_weights, corner_flat, corner_vals):
            contrib = (wt * valid)[..., None] * ds
            _scatter_rows(dx_flat, flat.reshape(-1), contrib.reshape(-1, c))
        dx = dx_flat.reshape(nb, h, wd, c)

        v00, v01, v10, v11 = corner_vals
        d_dfy = (-(1 - fx)[..., None] * v00 - fx[..., None] * v01
                 + (1 - fx)[..., None] * v10 + fx[..., None] * v11)
        d_dfx = (-(1 - fy)[..., None] * v00 + (1 - fy)[..., None] * v01
                 - fy[..., None] * v10 + fy[..., None] * v11)
        dpy = (ds * d_dfy).sum(axis=-1)
        dpx = (ds * d_dfx).sum(axis=-1)
        # py = y + (sizes_h - 1)/2 * lin[u]; px likewise with lin[v]
        dhalf_h = (dpy * lin[:, None]).sum(axis=(-2, -1))
        dhalf_w = (dpx * lin[None, :]).sum(axis=(-2, -1))
        dsizes = np.stack([dhalf_h, dhalf_w], axis=-1) * dt.type(0.5)
        return dx, dsizes, dw, db

    return _rec(out, (x, sizes, w, b), bw)


class ArConv:
    """Rectangle-size predicting conv: a two-layer shape net maps features to
    per-position (height, width) in [1, R_MAX]; sampling follows on a
    GRID x GRID grid."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.shape_conv1 = nn.Conv2d(store, f"{prefix}.shape1", c, c, 3, pad="same",
                                     init_gain=2.0)
        self.shape_conv2 = nn.Conv2d(store, f"{prefix}.shape2", c, 2, 3, pad="same")
        self.w_name = f"{prefix}.w"
        self.b_name = f"{prefix}.b"
        store.add(self.w_name,
                  nn.kaiming_uniform((GRID, GRID, c, c), GRID * GRID * c, gain=1.0))
        store.add(self.b_name, T.Fill((c,), 0.0))
        self.store = store

    def predicted_sizes(self, x: Tensor) -> Tensor:
        logits = self.shape_conv2(T.relu(self.shape_conv1(x)))
        return T.sigmoid(logits) * float(R_MAX - 1) + 1.0

    def __call__(self, x: Tensor) -> Tensor:
        sizes = self.predicted_sizes(x)
        return arconv_sample(x, sizes, self.store.value(self.w_name),
                             self.store.value(self.b_name))


class AsbeStem:
    """Channel compression -> pooled-difference boundary cue + adaptive
    rectangular conv -> ReLU fusion -> concat with compressed features ->
    1x1 output conv. Spatial dims are preserved."""

    def __init__(self, store: ParamStore, prefix: str, cin: int, c_stem: int, c_mid: int):
        self.compress = nn.Conv2d(store, f"{prefix}.compress", cin, c_mid, 1, pad="valid")
        self.arconv = ArConv(store, f"{prefix}.arconv", c_mid)
        self.out = nn.Conv2d(store, f"{prefix}.out", 2 * c_mid, c_stem, 1, pad="valid")

    def boundary_cue(self, x1: Tensor) -> Tensor:
        """High-frequency residual: features minus their local average.
        Exactly zero on spatially constant inputs (border-corrected pooling)."""
        return T.sub(x1, nn.avg_pool(x1, k=POOL_K))

    def __call__(self, x: Tensor) -> Tensor:
        n, h, w, c = x.shape
        if h < 4 or w < 4:
            raise ShapeError(f"stem needs spatial extents >= 4, got {h}x{w}")
        x1 = self.compress(x)
        d = self.boundary_cue(x1)
        bcue = T.relu(T.add(self.arconv(x1), d))
        return self.out(T.concat([bcue, x1]))
