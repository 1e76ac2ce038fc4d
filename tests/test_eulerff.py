import numpy as np
import pytest

import rdteunet.eulerff as ef
import rdteunet.tensor as T
from rdteunet.tensor import ParamStore, ShapeError, Tensor


def rx(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.standard_normal(shape)).astype(T.default_dtype()))


def make_stream(c=3, seed=0):
    store = ParamStore(seed)
    stream = ef.EulerStream(store, "st", c)
    return stream, store


# ---------------------------------------------------------------------------
# expansion invariants

def test_amplitude_nonnegative_extreme_inputs():
    stream, _ = make_stream(c=2)
    for seed, scale in ((1, 1.0), (2, 1e3), (3, 1e3)):
        a = stream.amplitude(rx((1, 4, 4, 2), seed, scale), "h").data
        assert np.all(a >= 0)


def test_phase_strictly_inside_pi_extreme_inputs():
    stream, _ = make_stream(c=2)
    for seed, scale in ((4, 1.0), (5, 1e3), (6, 1e3)):
        for axis in ("h", "v"):
            th = stream.phase_angle(rx((1, 4, 4, 2), seed, scale), axis).data
            assert np.all(th > -np.pi)
            assert np.all(th < np.pi)


def test_euler_identity_relative():
    # (A cos)^2 + (A sin)^2 == A^2; with magnitudes up to 1e3 the identity is
    # exact only relative to A^2 at 32-bit, so tolerance scales with A^2
    stream, _ = make_stream(c=2, seed=7)
    rng = np.random.default_rng(8)
    for i in range(100):
        scale = 1e3 if i % 3 == 0 else rng.uniform(0.1, 10.0)
        x = Tensor((scale * rng.standard_normal((1, 4, 4, 2))).astype(np.float32))
        a = stream.amplitude(x, "h").data
        f = stream.expand(x, "h").data
        re, im = f[..., :2], f[..., 2:]
        lhs = re.astype(np.float64) ** 2 + im.astype(np.float64) ** 2
        rhs = a.astype(np.float64) ** 2
        assert np.all(np.abs(lhs - rhs) <= 1e-4 * np.maximum(rhs, 1.0))


def test_expand_pure_real_when_phase_zeroed():
    stream, store = make_stream(c=2, seed=9)
    store.set_value("st.phase_h.w", T.zeros(store.value("st.phase_h.w").shape))
    store.set_value("st.phase_h.b", T.zeros((2,)))
    x = rx((1, 4, 4, 2), 10)
    f = stream.expand(x, "h").data
    a = stream.amplitude(x, "h").data
    assert np.allclose(f[..., :2], a, atol=1e-6)
    assert np.all(f[..., 2:] == 0)


# ---------------------------------------------------------------------------
# stream

def test_stream_preserves_shape():
    stream, _ = make_stream(c=3, seed=14)
    y = stream(rx((2, 5, 6, 3), 15))
    assert y.shape == (2, 5, 6, 3)


def test_stream_vanishes_with_pinned_amp_bias():
    # softplus(0) = ln 2, so a zero input alone does not kill the A path;
    # bias -20 drives A to ~2e-9 and the whole stream output to ~0
    stream, store = make_stream(c=2, seed=16)
    for axis in ("h", "v"):
        store.set_value(f"st.amp_{axis}.b", Tensor(np.full(2, -20.0, dtype=np.float32)))
    x = Tensor(np.zeros((1, 4, 4, 2), dtype=np.float32))
    y = stream(x).data
    assert np.all(np.abs(y) <= 1e-6)


def test_grouped_conv_sees_own_pair_only():
    # zeroing one channel's (re, im) pair changes only that group's output
    stream, store = make_stream(c=3, seed=20)
    x = rx((1, 4, 4, 3), 21)
    expanded = stream.expand(x, "h")
    paired = T.take_channels(expanded, stream.interleave)
    base = stream.group["h"](paired).data
    mutated = paired.data.copy()
    mutated[..., 2:4] = 0.0  # pair of channel 1
    out2 = stream.group["h"](Tensor(mutated)).data
    changed = np.abs(out2 - base).sum(axis=(0, 1, 2))
    assert changed[1] > 0
    assert changed[0] == 0 and changed[2] == 0


# ---------------------------------------------------------------------------
# fusion

def make_fusion(c=2, seed=30):
    store = ParamStore(seed)
    fuse = ef.EulerFusion(store, "ff", c)
    return fuse, store


def test_fusion_shape_and_determinism():
    fuse, _ = make_fusion(c=2)
    xs, xd = rx((1, 4, 4, 2), 31), rx((1, 4, 4, 2), 32)
    y1 = fuse(xs, xd)
    y2 = fuse(xs, xd)
    assert y1.shape == xd.shape
    assert np.array_equal(y1.data, y2.data)


def test_fusion_mismatch_error_names_stage():
    fuse, _ = make_fusion(c=2)
    with pytest.raises(ShapeError, match="euler fusion"):
        fuse(rx((1, 4, 4, 2), 33), rx((1, 8, 8, 2), 34))


def test_fusion_symmetric_weights_equal_streams():
    fuse, store = make_fusion(c=2, seed=35)
    # copy the skip stream's weights onto the decoder stream
    for name in store.names():
        if name.startswith("ff.skip."):
            twin = name.replace("ff.skip.", "ff.dec.")
            store.set_value(twin, store.value(name))
    x = rx((1, 4, 4, 2), 36)
    f_s = fuse.stream_skip(x).data
    f_d = fuse.stream_dec(x).data
    assert np.array_equal(f_s, f_d)
    out = fuse(x, x)
    assert out.shape == x.shape


def test_concat_fusion_ablation():
    store = ParamStore(37)
    cf = ef.ConcatFusion(store, "cf", 3)
    xs, xd = rx((1, 4, 4, 3), 38), rx((1, 4, 4, 3), 39)
    assert cf(xs, xd).shape == xd.shape
    with pytest.raises(ShapeError):
        cf(xs, rx((1, 4, 4, 2), 40))
