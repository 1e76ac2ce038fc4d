import numpy as np
import pytest

import rdteunet.nn as nn
import rdteunet.stairconv as sc
import rdteunet.tensor as T
from rdteunet.tensor import ConfigError, ParamStore, ShapeError, Tensor


def make(extent, axis="horizontal", cin=2, cout=4, k=3, seed=0):
    store = ParamStore(seed)
    return sc.StairConv(store, "s", axis, cin, cout, extent, k=k), store


def rx(shape, seed=1):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(T.default_dtype()))


def shift_right(a):
    out = np.zeros_like(a)
    out[:, :, 1:, :] = a[:, :, :-1, :]
    return out


# ---------------------------------------------------------------------------
# stair_pads placement

def test_pad_horizontal_level1_right():
    # 3 zero columns right, 1 zero row on top, 2 on bottom
    assert sc.stair_pads("horizontal", 1, "right", 3) == (1, 2, 0, 3)


def test_pad_vertical_level2_up():
    # 6 zero rows above; the orthogonal split is 3 before and 3 after
    assert sc.stair_pads("vertical", 2, "up", 3) == (6, 0, 3, 3)


def test_pad_preserves_values_at_shifted_coords():
    # content lands 3 columns right, 1 row down (floor(3/2)=1 before): the
    # implicitly padded conv equals a valid conv over the explicitly padded map
    pads = sc.stair_pads("horizontal", 1, "left", 3)
    assert pads == (1, 2, 3, 0)
    x = rx((1, 3, 5, 2), seed=2)
    w = rx((3, 3, 2, 2), seed=3)
    padded = np.zeros((1, 6, 8, 2), dtype=x.data.dtype)
    padded[0, 1:4, 3:8, :] = x.data[0]
    assert np.allclose(nn.conv2d(x, w, pad=pads).data, nn.conv2d(Tensor(padded), w).data,
                       atol=1e-5)


def test_pad_rejects_bad_args():
    with pytest.raises(ConfigError):
        sc.stair_pads("diagonal", 1, "right", 3)
    with pytest.raises(ConfigError):
        sc.stair_pads("horizontal", 3, "right", 3)
    with pytest.raises(ConfigError):
        sc.stair_pads("horizontal", 1, "up", 3)


# ---------------------------------------------------------------------------
# shape contract

def test_spec_example_shapes():
    stair, _ = make((8, 8), cin=4, cout=8, k=3)
    assert stair.c_branch == 2  # ceil(cout / 4)
    y = stair(rx((1, 8, 8, 4)), training=False)
    assert y.shape == (1, 8, 8, 8)


def test_branch_feature_shapes():
    stair, _ = make((5, 6), cin=2, cout=8, k=3)
    cat = stair.branch_features(rx((1, 5, 6, 2)), training=False)
    # each of the four branches is (h+1, w+1) x c_branch
    assert cat.shape == (1, 6, 7, 4 * stair.c_branch)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("h", range(2, 10))
@pytest.mark.parametrize("w", range(2, 10))
def test_shape_contract_grid(h, w, k):
    stair, _ = make((h, w), cin=2, cout=4, k=k, seed=h * 100 + w * 10 + k)
    y = stair(rx((1, h, w, 2), seed=h + w + k), training=False)
    assert y.shape == (1, h, w, 4)


# sides of each axis, in branch order within a level
SIDES = {"horizontal": ("right", "left"), "vertical": ("up", "down")}


def _live_rect(extent, kernel, pad):
    """First-to-last rows and columns of a stride-1 kernel whose taps meet a
    pixel, read off an explicitly padded map of ones."""
    (h, w), k, (pt, pb, pl, pr) = extent, kernel, pad
    img = np.zeros((h + pt + pb, w + pl + pr))
    img[pt:pt + h, pl:pl + w] = 1
    oh, ow = img.shape[0] - k + 1, img.shape[1] - k + 1
    live = np.array([[img[i:i + oh, j:j + ow].any() for j in range(k)] for i in range(k)])
    rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("h", range(2, 10))
@pytest.mark.parametrize("w", range(2, 10))
def test_trimmed_branches_match_full_kernel_oracle(h, w, k):
    # each branch against nn.conv2d on its full (level*k)^2 kernel at the
    # original stair_pads, the trimmed taps filled with NaN so a read of one shows
    for axis in SIDES:
        stair, store = make((h, w), axis=axis, cin=2, cout=4, k=k, seed=h * 100 + w * 10 + k)
        x = rx((2, h, w, 2), seed=h + w + k)
        specs = [(level, side) for level in (1, 2) for side in SIDES[axis]]
        for (conv, _), (level, side) in zip(stair.branches, specs):
            pad = sc.stair_pads(axis, level, side, k)
            rows, cols = _live_rect((h, w), level * k, pad)
            w_kept = store.value(conv.w_name)
            full = np.full((level * k, level * k) + w_kept.shape[2:], np.nan, w_kept.data.dtype)
            full[rows, cols] = w_kept.data
            w_full = Tensor(full)
            with T.Tape() as tape:
                y = conv(x)
                probe = rx(y.shape, seed=k)
                dx, dw = tape.grad(T.tsum(T.mul(y, probe)), [x, w_kept])
            with T.Tape() as tape:
                y_ref = nn.conv2d(x, w_full, pad=pad)
                dx_ref, dw_ref = tape.grad(T.tsum(T.mul(y_ref, probe)), [x, w_full])
            assert np.array_equal(y.data, y_ref.data)
            assert np.array_equal(dx, dx_ref)
            assert np.array_equal(dw, dw_ref[rows, cols])
            dead = np.ones(full.shape[:2], bool)
            dead[rows, cols] = False
            assert np.all(dw_ref[dead] == 0)


def test_input_of_another_extent_error():
    stair, _ = make((4, 4))
    for shape in ((1, 4, 5, 2), (1, 5, 4, 2), (1, 8, 8, 2)):
        with pytest.raises(ShapeError):
            stair(rx(shape), training=False)


def test_small_extent_refused_at_construction():
    for extent in ((1, 5), (5, 1)):
        with pytest.raises(ConfigError):
            make(extent)


def test_small_input_error():
    stair, _ = make((4, 4))
    with pytest.raises(ShapeError):
        stair(rx((1, 1, 5, 2)), training=False)


def test_channel_mismatch_error():
    stair, _ = make((4, 4), cin=2)
    with pytest.raises(ShapeError):
        stair(rx((1, 4, 4, 3)), training=False)


def test_zero_input_zero_biases_gives_zero():
    stair, store = make((4, 4), cin=2, cout=4)
    x = Tensor(np.zeros((1, 4, 4, 2), dtype=np.float32))
    y = stair(x, training=False)
    assert np.allclose(y.data, 0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# mirror equivariance

def _mirror_w(a):
    return np.ascontiguousarray(a[:, :, ::-1, :])


def test_branch_mirror_equivariance():
    # Mirroring the input along the shift axis while moving each side's
    # weights to the opposite branch (mirrored along the kernel's shift axis)
    # mirrors the pre-fusion features. A plain weight swap without the kernel
    # flip cannot be equivariant for arbitrary kernels.
    stair, store = make((6, 6), cin=2, cout=8, k=3, seed=7)
    x = rx((1, 6, 6, 2), seed=8)
    base = stair.branch_features(x, training=False).data

    swapped, store2 = make((6, 6), cin=2, cout=8, k=3, seed=7)
    pairs = [("s.b1_right", "s.b1_left"), ("s.b2_right", "s.b2_left")]
    for right, left in pairs:
        wr = store.value(f"{right}.conv.w").data
        wl = store.value(f"{left}.conv.w").data
        store2.set_value(f"{right}.conv.w", Tensor(np.ascontiguousarray(wl[:, ::-1])))
        store2.set_value(f"{left}.conv.w", Tensor(np.ascontiguousarray(wr[:, ::-1])))
        for side_src, side_dst in ((right, left), (left, right)):
            store2.set_value(f"{side_dst}.bn.gamma", store.value(f"{side_src}.bn.gamma"))
            store2.set_value(f"{side_dst}.bn.beta", store.value(f"{side_src}.bn.beta"))

    mirrored = swapped.branch_features(Tensor(_mirror_w(x.data)), training=False).data

    cb = stair.c_branch
    blocks = [base[..., i * cb:(i + 1) * cb] for i in range(4)]
    # concat order is (b1_right, b1_left, b2_right, b2_left); after the swap,
    # branch slot "right" carries the mirror of the original left features
    expected = np.concatenate(
        [_mirror_w(blocks[1]), _mirror_w(blocks[0]), _mirror_w(blocks[3]), _mirror_w(blocks[2])],
        axis=-1)
    assert np.allclose(mirrored, expected, atol=1e-5)


# ---------------------------------------------------------------------------
# directional response

def _center_pads(stair):
    # the symmetric baseline: same weights, each branch's padding centered
    for conv, _ in stair.branches:
        total = max(conv.pad)
        conv.pad = (total // 2, total - total // 2) * 2


def _branch_onesidedness(stair, x, xs):
    f = stair.branch_features(x, False).data
    fs = stair.branch_features(xs, False).data
    cb = stair.c_branch
    vals = []
    for bi in range(4):
        d = (fs - f)[..., bi * cb:(bi + 1) * cb]
        col = (d ** 2).sum(axis=(0, 1, 3))
        w = len(col)
        left, right = col[: w // 2].sum(), col[w - w // 2:].sum()
        vals.append(abs(left - right) / max(left + right, 1e-12))
    return float(np.mean(vals))


def test_directional_response_is_one_sided_per_branch():
    # Each stair branch pads one side only, so its translation response
    # concentrates on that side; centered padding balances the two sides.
    wins, trials = 0, 40
    for t in range(trials):
        stair = sc.StairConv(ParamStore(6000 + t), "s", "horizontal", 4, 8, (8, 8), k=3)
        data = np.random.default_rng(7000 + t).standard_normal((1, 8, 8, 4)).astype(np.float32)
        x, xs = Tensor(data), Tensor(shift_right(data))
        a_stair = _branch_onesidedness(stair, x, xs)
        _center_pads(stair)
        a_sym = _branch_onesidedness(stair, x, xs)
        wins += a_stair > a_sym
    assert wins >= 0.9 * trials


@pytest.mark.xfail(
    strict=True,
    reason="structurally inverted: one-sided padding feeds more output positions "
    "from pure padding, and those constant positions contribute zero translation "
    "response, so the fused stair output never responds more in aggregate L2 than "
    "the weight-matched symmetric-pad baseline",
)
def test_fused_translation_response_exceeds_symmetric_baseline():
    wins, trials = 0, 40
    for t in range(trials):
        stair = sc.StairConv(ParamStore(6000 + t), "s", "horizontal", 4, 8, (8, 8), k=3)
        data = np.random.default_rng(7000 + t).standard_normal((1, 8, 8, 4)).astype(np.float32)
        x, xs = Tensor(data), Tensor(shift_right(data))
        d_stair = np.linalg.norm(stair(x, False).data - stair(xs, False).data)
        _center_pads(stair)
        d_sym = np.linalg.norm(stair(x, False).data - stair(xs, False).data)
        wins += d_stair > d_sym
    assert wins >= 0.9 * trials
