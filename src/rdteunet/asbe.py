"""Boundary-enhancing input stem.

The stem compresses channels with a 1x1 conv, computes a high-frequency
boundary cue as (features - average-pooled features), adds it to the output
of an adaptive rectangular convolution whose per-position support size is
predicted by a small conv stack, and fuses everything through a final 1x1
conv. One op, `size_map`, maps the stack's logits to sizes in [1, R_MAX].
The rectangular sampler is an n x n bilinear grid spanning the predicted
(height, width) rectangle; it is differentiable in the inputs, the
shared kernel, and the predicted sizes. It runs at the full input resolution,
so it is written as gathers, GEMMs and bincounts over whole grids; its direct
per-corner form is kept as the test oracle in tests/test_asbe.py.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import nn
from . import tensor as T
from .tensor import ParamStore, ShapeError, Tensor, _rec

GRID = 3  # the sampler's n x n grid
R_MAX = 7  # largest predicted rectangle extent; odd, so a rectangle has a center pixel
POOL_K = 3  # average-pool window of the boundary cue


def _axis_corners(p: np.ndarray, size: int):
    """Bilinear corners of sample coordinates `p` along one image axis.

    Returns the fraction p - floor(p) and, per corner offset d in (0, 1),
    the clipped pixel index, the in-image mask and the corner weight with
    that mask folded in (zero where the pixel is outside the image).
    """
    p0 = np.floor(p)
    frac = p - p0
    i0 = p0.astype(np.int64)
    corners = []
    for d, wt in ((0, 1 - frac), (1, frac)):
        i = i0 + d
        inside = (i >= 0) & (i < size)
        corners.append((np.clip(i, 0, size - 1), inside, wt * inside))
    return frac, corners


def _sample_geometry(sizes: np.ndarray, lin_u: np.ndarray, lin_v: np.ndarray,
                     h: int, wd: int):
    """Where each position's n x n grid samples, for the (nb, h, wd, 2)
    rectangle sizes and the grid's n offsets in [-1, 1] along its first
    axis, `lin_u` (n, 1, 1, 1, 1), and its second, `lin_v` (1, n, 1, 1, 1).

    Returns the row and column fractions fy (n, 1, nb, h, wd) and
    fx (1, n, nb, h, wd), and per corner (dy, dx) in order 00, 01, 10, 11,
    flat over the (n, n, nb, h, wd) grid: the row of the (nb*h*wd, c) pixel
    view, the in-image mask and the corner weight, zero outside the image.
    """
    nb, n_grid, dt = sizes.shape[0], lin_u.shape[0], lin_u.dtype
    grid = (n_grid, n_grid, nb, h, wd)
    half_h = (sizes[..., 0] - 1) * dt.type(0.5)
    half_w = (sizes[..., 1] - 1) * dt.type(0.5)
    # sample coordinates: rows (n, 1, nb, h, wd) vary along the grid's first
    # axis, columns (1, n, nb, h, wd) along its second
    py = np.arange(h, dtype=dt)[:, None] + half_h * lin_u
    px = np.arange(wd, dtype=dt) + half_w * lin_v
    fy, rows = _axis_corners(py, h)
    fx, cols = _axis_corners(px, wd)

    bbase = (np.arange(nb, dtype=np.int64) * h)[:, None, None]
    flat = np.empty((4,) + grid, dtype=np.int64)
    inside = np.empty((4,) + grid, dtype=bool)
    weight = np.empty((4,) + grid, dtype=dt)
    for k, ((yc, y_in, wy), (xc, x_in, wx)) in enumerate(itertools.product(rows, cols)):
        np.add((bbase + yc) * wd, xc, out=flat[k])
        np.logical_and(y_in, x_in, out=inside[k])
        np.multiply(wy, wx, out=weight[k])
    return fy, fx, flat.reshape(4, -1), inside.reshape(4, -1), weight.reshape(4, -1)


def size_map(z: Tensor) -> Tensor:
    """Rectangle sizes 1 + (R_MAX - 1) * sigmoid(z). The closure keeps only
    z: like SiLU's, its backward evaluates the sigmoid again."""
    x = z.data
    scale, one = x.dtype.type(R_MAX - 1), x.dtype.type(1)

    def bw(g):
        s = T._sigmoid(x)
        return (g * scale * s * (1 - s),)

    return _rec(Tensor(T._sigmoid(x) * scale + one), (z,), bw)


def arconv_sample(x: Tensor, sizes: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Adaptive rectangle sampling + shared-kernel mixing.

    For each position p, an n x n grid spans the sizes[p] = (height, width)
    rectangle centered at p; samples are bilinear with zeros outside the
    image, then mixed by the shared (n, n, c, c_out) kernel, which sets n.

    Grid quantities are laid out (n, n, N, h, w), grid offset first, so each
    elementwise op runs over whole images. Each of the four bilinear corners
    is one row gather from the (N*h*w, c) pixel view, weighted by a weight
    that is zero outside the image. The mixing is one GEMM on the
    (N*h*w, n*n*c) sample matrix. The input gradient is one bincount per
    channel over all corners' pixel indices; the size gradient contracts the
    channels of each corner first and combines the corners at grid size.
    The op keeps only x, the sizes and the kernel: its backward rebuilds the
    geometry, the corner pixels and the sample matrix with the forward's
    expressions (`_sample_geometry`, `samples`), so they are bit-equal to
    the forward's, rather than holding them until the sweep.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"arconv_sample expects NHWC input, got {x.shape}")
    nb, h, wd, c = x.shape
    if sizes.shape != (nb, h, wd, 2):
        raise ShapeError(f"sizes shape {sizes.shape} != {(nb, h, wd, 2)}")
    n_grid = w.shape[0]
    if n_grid < 2 or w.shape[1] != n_grid or w.shape[2] != c:
        raise ShapeError(f"kernel shape {w.shape} is not an (n, n, {c}, c_out) grid, n >= 2")
    cout = w.shape[3]
    if b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")
    dt = x.data.dtype
    m = nb * h * wd
    nn2 = n_grid * n_grid
    grid = (n_grid, n_grid, nb, h, wd)
    lin = np.linspace(-1.0, 1.0, n_grid, dtype=dt)
    lin_u, lin_v = lin[:, None, None, None, None], lin[None, :, None, None, None]
    pixels = x.data.reshape(m, c)
    sizes_a = sizes.data

    def samples():
        """The geometry, the four corners' pixels (4, n*n*m, c) by one row
        gather, and the (m, n*n*c) sample matrix in the kernel's (u, v, c)
        order per position."""
        geometry = _sample_geometry(sizes_a, lin_u, lin_v, h, wd)
        _, _, flat, _, weight = geometry
        vals = np.take(pixels, flat.reshape(-1), axis=0).reshape(4, -1, c)
        # summed in corner order, then (n*n, m, c) -> (m, n*n*c)
        s = np.einsum("kp,kpc->pc", weight, vals)
        return geometry, vals, s.reshape(nn2, m, c).transpose(1, 0, 2).reshape(m, nn2 * c)

    _, _, s2 = samples()
    wmat = w.data.reshape(nn2 * c, cout)
    x_shape, w_shape = x.shape, w.shape
    # (w^T s^T)^T rather than s w: the operand order of einsum's matmul path
    # for this contraction, so the rounding is the direct form's at every shape
    out_arr = (wmat.T @ s2.T).T.reshape(nb, h, wd, cout)
    out_arr += b.data
    out = Tensor(out_arr)

    def bw(g):
        (fy, fx, flat, inside, weight), vals, s2 = samples()
        g2 = g.reshape(m, cout)
        dw = (g2.T @ s2).T.reshape(w_shape)
        del s2
        db = g.sum(axis=(0, 1, 2))
        # sample grads in grid order, as (n*n*m, c) and per channel (n*n, c, m)
        ds = np.matmul(g2, wmat.reshape(nn2, c, cout).transpose(0, 2, 1)).reshape(-1, c)
        ds_c = (wmat @ g2.T).reshape(nn2, c, m)

        # bincount sums in float64; handing it float64 weights saves a cast per call
        contrib = np.empty((4, nn2, m), dtype=np.float64)
        dx = np.empty((m, c), dtype=dt)
        for ch in range(c):
            np.multiply(weight.reshape(4, nn2, m), ds_c[:, ch], out=contrib)
            dx[:, ch] = np.bincount(flat.reshape(-1), weights=contrib.reshape(-1),
                                    minlength=m)

        # e_k: each corner's channel dot with ds, zero outside the image
        e00, e01, e10, e11 = (
            (np.einsum("pc,pc->p", ds, vals[k]) * inside[k]).reshape(grid)
            for k in range(4))
        dpy = (1 - fx) * (e10 - e00) + fx * (e11 - e01)
        dpx = (1 - fy) * (e01 - e00) + fy * (e11 - e10)
        # py = y + (sizes_h - 1)/2 * lin[u]; px likewise with lin[v]
        dhalf_h = (dpy * lin_u).sum(axis=(0, 1))
        dhalf_w = (dpx * lin_v).sum(axis=(0, 1))
        dsizes = np.stack([dhalf_h, dhalf_w], axis=-1) * dt.type(0.5)
        return dx.reshape(x_shape), dsizes, dw, db

    return _rec(out, (x, sizes, w, b), bw)


class ArConv:
    """Rectangle-size predicting conv: a two-layer shape net maps features to
    per-position (height, width) in [1, R_MAX]; sampling follows on a
    GRID x GRID grid. The sampler's kernel is a GRID x GRID `nn.Conv2d` under
    `prefix`, which `arconv_sample` applies (its own `__call__` never runs)."""

    def __init__(self, store: ParamStore, prefix: str, c: int):
        self.shape_conv1 = nn.Conv2d(store, f"{prefix}.shape1", c, c, 3, pad="same",
                                     init_gain=2.0)
        self.shape_conv2 = nn.Conv2d(store, f"{prefix}.shape2", c, 2, 3, pad="same")
        self.kernel = nn.Conv2d(store, prefix, c, c, GRID)

    def _sizes(self, x: Tensor) -> Tensor:
        return size_map(self.shape_conv2(T.relu(self.shape_conv1(x))))

    def predicted_sizes(self, x: Tensor) -> Tensor:
        """The sampler's sizes for `x`, as values for inspection: the shape
        net runs on a throwaway tape, so an active tape gets no entry."""
        with T.Tape():
            return self._sizes(x)

    def __call__(self, x: Tensor) -> Tensor:
        return arconv_sample(x, self._sizes(x), *self.kernel.weights())


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
