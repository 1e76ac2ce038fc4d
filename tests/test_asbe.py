import numpy as np
import pytest

import rdteunet.asbe as ab
import rdteunet.tensor as T
from rdteunet.tensor import ParamStore, ShapeError, Tape, Tensor, _rec


def rx(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.standard_normal(shape)).astype(T.default_dtype()))


def make_arconv(c=2, seed=0):
    store = ParamStore(seed)
    ar = ab.ArConv(store, "ar", c)
    return ar, store


# ---------------------------------------------------------------------------
# sampler oracle: the direct form, one masked (..., c) gather per corner and
# a per-corner, per-channel scatter of the input gradient

def _scatter_rows(acc_flat, idx, vals):
    n_rows, c = acc_flat.shape
    for ch in range(c):
        acc_flat[:, ch] += np.bincount(idx, weights=vals[..., ch].reshape(-1),
                                       minlength=n_rows).astype(acc_flat.dtype, copy=False)


def _arconv_sample_oracle(x, sizes, w, b):
    nb, h, wd, c = x.shape
    n_grid = w.shape[0]
    dt = x.data.dtype
    lin = np.linspace(-1.0, 1.0, n_grid, dtype=dt)

    half_h = (sizes.data[..., 0] - 1) * dt.type(0.5)
    half_w = (sizes.data[..., 1] - 1) * dt.type(0.5)
    base_y = np.arange(h, dtype=dt)[None, :, None]
    base_x = np.arange(wd, dtype=dt)[None, None, :]
    py = base_y[..., None, None] + half_h[..., None, None] * lin[:, None]
    px = base_x[..., None, None] + half_w[..., None, None] * lin[None, :]

    y0 = np.floor(py)
    x0 = np.floor(px)
    fy = py - y0
    fx = px - x0
    y0i = y0.astype(np.int64)
    x0i = x0.astype(np.int64)

    bidx = np.arange(nb, dtype=np.int64)[:, None, None, None, None]
    corner_vals, corner_weights, corner_flat = [], [], []
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
        for wt, (flat, valid) in zip(corner_weights, corner_flat):
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
        dhalf_h = (dpy * lin[:, None]).sum(axis=(-2, -1))
        dhalf_w = (dpx * lin[None, :]).sum(axis=(-2, -1))
        dsizes = np.stack([dhalf_h, dhalf_w], axis=-1) * dt.type(0.5)
        return dx, dsizes, dw, db

    return _rec(out, (x, sizes, w, b), bw)


def _sampler_case(dtype, nb, h, wd, c, cout, seed):
    """Inputs with random sizes in [1, R_MAX], some exactly 1 and R_MAX."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((nb, h, wd, c))
    sizes = rng.uniform(1.0, ab.R_MAX, (nb, h, wd, 2))
    pick = rng.integers(0, 4, sizes.shape)
    sizes[pick == 0] = 1.0
    sizes[pick == 1] = ab.R_MAX
    w = rng.standard_normal((ab.GRID, ab.GRID, c, cout))
    b = rng.standard_normal(cout)
    probe = rng.standard_normal((nb, h, wd, cout))
    return [a.astype(dtype) for a in (x, sizes, w, b, probe)]


def _run_sampler(fn, x, sizes, w, b, probe):
    ins = [Tensor(a) for a in (x, sizes, w, b)]
    with Tape() as tape:
        y = fn(*ins)
        grads = tape.grad(T.tsum(T.mul(y, Tensor(probe))), ins)
    return y.data, grads


def _rel_err(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("nb, h, wd, c, cout, seed",
                         [(2, 5, 6, 1, 3, 0), (3, 6, 5, 4, 2, 1), (1, 9, 7, 3, 3, 2)],
                         ids=["c1", "c4", "c3_b1"])
def test_arconv_sample_matches_oracle(dtype, tol, nb, h, wd, c, cout, seed):
    case = _sampler_case(dtype, nb, h, wd, c, cout, seed)
    x, sizes = case[0], case[1]
    # some rectangle crosses each of the four image borders
    reach = (sizes - 1) / 2
    ys = np.arange(h)[None, :, None]
    xs = np.arange(wd)[None, None, :]
    assert (ys - reach[..., 0] < 0).any() and (ys + reach[..., 0] > h - 1).any()
    assert (xs - reach[..., 1] < 0).any() and (xs + reach[..., 1] > wd - 1).any()
    with T.using_dtype(dtype):
        y, (dx, dsizes, dw, db) = _run_sampler(ab.arconv_sample, *case)
        y_ref, (dx_ref, dsizes_ref, dw_ref, db_ref) = _run_sampler(_arconv_sample_oracle, *case)
    assert y.dtype == dx.dtype == dsizes.dtype == dw.dtype == dtype
    assert np.array_equal(y, y_ref)
    assert np.array_equal(dw, dw_ref)
    assert np.array_equal(db, db_ref)
    assert _rel_err(dx, dx_ref) <= tol
    assert _rel_err(dsizes, dsizes_ref) <= tol


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_arconv_sample_border_nan_matches_oracle(dtype):
    # out-of-image samples read the clipped border pixel times a zero weight,
    # so a NaN there reaches every sample that clips to it, as in the oracle
    x, sizes, w, b, probe = _sampler_case(dtype, 2, 6, 5, 3, 2, 3)
    x[1, 0, 2, 1] = np.nan
    with T.using_dtype(dtype):
        got = _run_sampler(ab.arconv_sample, x, sizes, w, b, probe)
        ref = _run_sampler(_arconv_sample_oracle, x, sizes, w, b, probe)
    for a, a_ref in zip((got[0], *got[1]), (ref[0], *ref[1])):
        assert np.array_equal(np.isnan(a), np.isnan(a_ref))
    assert np.isnan(got[0]).any() and np.isnan(got[1][1]).any()
    assert np.array_equal(got[0], ref[0], equal_nan=True)


# ---------------------------------------------------------------------------
# arconv

def test_arconv_config_contracts():
    # the kernel sets the sample grid: it must be (n, n, c, c_out) with n >= 2
    x = rx((1, 4, 4, 2), 1)
    sizes = Tensor(np.full((1, 4, 4, 2), 3.0, dtype=np.float32))
    b = T.zeros((2,))
    for shape in ((1, 1, 2, 2), (3, 2, 2, 2), (3, 3, 1, 2)):
        with pytest.raises(ShapeError):
            ab.arconv_sample(x, sizes, T.zeros(shape), b)


def test_arconv_degenerate_rectangle_collapses_to_center():
    ar, store = make_arconv(c=2, seed=2)
    # force predicted sizes to ~(1,1): zero shape-net weights, bias -20
    store.set_value("ar.shape2.w", T.zeros(store.value("ar.shape2.w").shape))
    store.set_value("ar.shape2.b", Tensor(np.full(2, -20.0, dtype=np.float32)))
    x = rx((1, 6, 6, 2), 3)
    y = ar(x).data
    w = store.value("ar.w").data
    b = store.value("ar.b").data
    expected = np.einsum("bhwc,co->bhwo", x.data, w.sum(axis=(0, 1))) + b
    assert np.allclose(y, expected, atol=1e-5)


def test_arconv_constant_input_interior():
    ar, store = make_arconv(c=2, seed=4)
    const = np.array([0.7, -0.3], dtype=np.float32)
    x = Tensor(np.broadcast_to(const, (1, 11, 11, 2)).copy())
    y = ar(x).data
    w = store.value("ar.w").data
    b = store.value("ar.b").data
    expected = const @ w.sum(axis=(0, 1)) + b
    # interior: rectangle (max extent R_MAX=7 -> reach 3) stays inside
    interior = y[0, 4:7, 4:7, :]
    assert np.allclose(interior, expected, atol=1e-4)


def test_arconv_shape_preserved():
    ar, _ = make_arconv(c=3, seed=5)
    assert ar(rx((2, 5, 7, 3), 6)).shape == (2, 5, 7, 3)


def test_arconv_sizes_within_bounds():
    ar, _ = make_arconv(c=2, seed=10)
    sizes = ar.predicted_sizes(rx((1, 6, 6, 2), 11, scale=50.0)).data
    assert np.all(sizes >= 1.0)
    assert np.all(sizes <= 7.0)


def test_predicted_sizes_records_nothing_and_are_the_samplers_sizes(monkeypatch):
    ar, _ = make_arconv(c=2, seed=12)
    x = rx((2, 5, 6, 2), 13)
    got = []
    sample = ab.arconv_sample

    def spy(x_in, sizes, w, b):
        got.append(sizes.data)
        return sample(x_in, sizes, w, b)

    monkeypatch.setattr(ab, "arconv_sample", spy)
    with Tape() as tape:
        ar(x)
        n = len(tape)
        sizes = ar.predicted_sizes(x).data
        assert len(tape) == n
    assert np.array_equal(sizes, got[0])


# ---------------------------------------------------------------------------
# stem

def make_stem(cin=1, c_stem=16, seed=20):
    store = ParamStore(seed)
    stem = ab.AsbeStem(store, "stem", cin, c_stem=c_stem, c_mid=8)
    return stem, store


def test_boundary_cue_vanishes_on_constant_input():
    stem, _ = make_stem()
    x1 = Tensor(np.full((1, 6, 6, 8), 0.37, dtype=np.float32))
    d = stem.boundary_cue(x1).data
    assert np.all(np.abs(d) <= 1e-6)


def test_boundary_cue_step_edge_support():
    # vertical step a|b: |d| = |a-b|/3 in the two columns adjacent to the
    # edge (k=3 pooling with true-count borders), zero >= 2 px away
    a, b = 0.2, 0.8
    img = np.full((1, 6, 8, 1), a, dtype=np.float32)
    img[:, :, 4:, :] = b
    stem, _ = make_stem()
    d = stem.boundary_cue(Tensor(img)).data[0, :, :, 0]
    expect = abs(a - b) / 3
    assert np.allclose(np.abs(d[:, 3]), expect, atol=1e-6)
    assert np.allclose(np.abs(d[:, 4]), expect, atol=1e-6)
    assert np.all(np.abs(d[:, :3]) <= 1e-6)
    assert np.all(np.abs(d[:, 5:]) <= 1e-6)


def test_boundary_cue_scales_linearly_with_contrast():
    img = np.zeros((1, 5, 6, 1), dtype=np.float32)
    img[:, :, 3:, :] = 1.0
    stem, _ = make_stem()
    d1 = stem.boundary_cue(Tensor(img)).data
    d3 = stem.boundary_cue(Tensor(3.0 * img)).data
    assert np.allclose(d3, 3.0 * d1, atol=1e-6)


def test_stem_output_shape():
    stem, _ = make_stem(cin=1, c_stem=16)
    y = stem(rx((2, 8, 8, 1), 21))
    assert y.shape == (2, 8, 8, 16)


def test_stem_rejects_tiny_inputs():
    stem, _ = make_stem()
    with pytest.raises(ShapeError):
        stem(rx((1, 3, 8, 1), 22))
