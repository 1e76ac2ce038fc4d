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
        re, im = f[..., 0::2], f[..., 1::2]
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
    assert np.allclose(f[..., 0::2], a, atol=1e-6)
    assert np.all(f[..., 1::2] == 0)


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
    paired = stream.expand(x, "h")
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


# ---------------------------------------------------------------------------
# the one-op expansion against the composed chain of tape ops

def _clip_op(a, lo, hi):
    """Test-only clamp op: zero gradient where the clamp engaged."""
    inside = (a.data > lo) & (a.data < hi)
    return T._rec(Tensor(np.clip(a.data, lo, hi)), (a,), lambda g: (g * inside,))


def composed_pairs(u, v):
    """Test-only oracle: the expansion as a chain of tape ops (softplus,
    tanh times pi, clip, cos, sin, mul, concat, then the interleaving gather)."""
    dt = v.data.dtype
    lim = ef._phase_limit(dt)
    a = T.softplus(u)
    theta = _clip_op(T.tanh(v) * float(dt.type(np.pi)), -lim, lim)
    expanded = T.concat([T.mul(a, T.cos(theta)), T.mul(a, T.sin(theta))])
    c = u.shape[-1]
    return T.take_channels(expanded, np.arange(2 * c).reshape(2, c).T.reshape(-1))


def _pair_logits(dtype, amp_scale, seed=41):
    # a quarter of the phase logits at 1e3 saturate tanh, so pi*tanh lands
    # on +-pi and the clamp engages there
    rng = np.random.default_rng(seed)
    shape = (2, 3, 4, 5)
    u = amp_scale * rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    v.reshape(-1)[::4] *= 1e3
    return Tensor(u.astype(dtype)), Tensor(v.astype(dtype)), rng.standard_normal(
        shape[:-1] + (2 * shape[-1],)).astype(dtype)


@pytest.mark.parametrize("amp_scale", [1.0, 1e3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_euler_pairs_forward_bit_equal_to_composed_chain(dtype, amp_scale):
    with T.using_dtype(dtype):
        u, v, _ = _pair_logits(dtype, amp_scale)
        got = ef.euler_pairs(u, v).data
        want = composed_pairs(u, v).data
    assert got.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("amp_scale", [1.0, 1e3])
def test_euler_pairs_grads_match_composed_chain_float64(amp_scale):
    with T.using_dtype(np.float64):
        u, v, probe = _pair_logits(np.float64, amp_scale)
        grads = []
        for op in (ef.euler_pairs, composed_pairs):
            with T.Tape() as tape:
                loss = T.tsum(T.mul(op(u, v), Tensor(probe)))
                grads.append(tape.grad(loss, [u, v]))
    clamped = np.abs(np.tanh(v.data) * np.pi) >= ef._phase_limit(np.dtype(np.float64))
    assert clamped.any() and not clamped.all()
    for got, want in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert np.all(grads[0][1][clamped] == 0)


def test_euler_pairs_refuses_mismatched_logits():
    with pytest.raises(ShapeError, match="euler pairs"):
        ef.euler_pairs(rx((1, 4, 4, 2), 44), rx((1, 4, 4, 3), 45))


def test_amplitude_and_phase_are_the_expansion_formula():
    # the inspection methods and the op share one formula
    stream, _ = make_stream(c=3, seed=42)
    x = rx((2, 4, 5, 3), 43, scale=10.0)
    for axis in ("h", "v"):
        f = stream.expand(x, axis).data
        a = stream.amplitude(x, axis).data
        th = stream.phase_angle(x, axis).data
        assert np.array_equal(f[..., 0::2], a * np.cos(th))
        assert np.array_equal(f[..., 1::2], a * np.sin(th))
