import numpy as np
import pytest

import rdteunet.asbe as ab
import rdteunet.tensor as T
from rdteunet.tensor import ParamStore, ShapeError, Tensor


def rx(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.standard_normal(shape)).astype(T.default_dtype()))


def make_arconv(c=2, seed=0):
    store = ParamStore(seed)
    ar = ab.ArConv(store, "ar", c)
    return ar, store


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
