import numpy as np
import pytest
from test_nn import im2col_conv2d

import rdteunet.eulerff as ef
import rdteunet.nn as nn
import rdteunet.tensor as T
from rdteunet.tensor import ParamStore, ShapeError, Tensor


def rx(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.standard_normal(shape)).astype(T.default_dtype()))


def make_stream(c=3, seed=0):
    store = ParamStore(seed)
    stream = ef.EulerStream(store, "st", c)
    return stream, store


def logits(stream, x, axis):
    """The amplitude and phase logits the expansion along `axis` reads."""
    return stream.amp[axis](x), stream.phase[axis](x)


def pair_parts(u, v):
    """A*cos(theta) and A*sin(theta), read through the fused op with 1x1 pair
    kernels that pass one part at weight 1 and the other at weight 0, and a
    zero bias: each output is exactly that part."""
    c = u.shape[-1]
    parts = []
    for m in (0, 1):
        w = np.zeros((1, 1, 2, c), dtype=u.data.dtype)
        w[0, 0, m] = 1
        parts.append(ef.euler_pair_conv(u, v, Tensor(w), T.zeros((c,)), (0, 0, 0, 0)).data)
    return parts


# ---------------------------------------------------------------------------
# expansion invariants

def test_softplus_stable():
    y = ef._softplus(np.array([1000.0, -1000.0], dtype=np.float32))
    assert np.isfinite(y).all()
    assert y[0] == pytest.approx(1000.0)
    assert y[1] == pytest.approx(0.0, abs=1e-6)


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
        re, im = pair_parts(*logits(stream, x, "h"))
        lhs = re.astype(np.float64) ** 2 + im.astype(np.float64) ** 2
        rhs = a.astype(np.float64) ** 2
        assert np.all(np.abs(lhs - rhs) <= 1e-4 * np.maximum(rhs, 1.0))


def test_expand_pure_real_when_phase_zeroed():
    stream, store = make_stream(c=2, seed=9)
    store.set_value("st.phase_h.w", T.zeros(store.value("st.phase_h.w").shape))
    store.set_value("st.phase_h.b", T.zeros((2,)))
    x = rx((1, 4, 4, 2), 10)
    re, im = pair_parts(*logits(stream, x, "h"))
    a = stream.amplitude(x, "h").data
    assert np.allclose(re, a, atol=1e-6)
    assert np.all(im == 0)


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
    # zeroing channel 1's (re, im) pair (amplitude logit -1e4: A = 0), or
    # moving its phase, changes only output channel 1 of the pair conv
    stream, _ = make_stream(c=3, seed=20)
    x = rx((1, 4, 4, 3), 21)
    pair = stream.pair["h"]
    (w, b), pad = pair.weights(), pair.pad
    u, v = logits(stream, x, "h")
    base = ef.euler_pair_conv(u, v, w, b, pad).data
    for i, value in ((0, -1e4), (1, 0.5)):
        mutated = [u.data.copy(), v.data.copy()]
        mutated[i][..., 1] = value
        out2 = ef.euler_pair_conv(Tensor(mutated[0]), Tensor(mutated[1]), w, b, pad).data
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
# the fused op against the composed chain of tape ops and the grouped conv oracle

def _clip_op(a, lo, hi):
    """Test-only clamp op: zero gradient where the clamp engaged."""
    inside = (a.data > lo) & (a.data < hi)
    return T._rec(Tensor(np.clip(a.data, lo, hi)), (a,), lambda g: (g * inside,))


def _unary_op(a, fwd, slope):
    """Test-only elementwise op: forward fwd(x), backward g * slope(x)."""
    x = a.data
    return T._rec(Tensor(fwd(x)), (a,), lambda g: (g * slope(x),))


def composed_pairs(u, v):
    """Test-only oracle: the expansion as a chain of tape ops (softplus,
    tanh times pi, clip, cos, sin, mul, concat): channels k and c+k hold
    A_k*cos(theta_k) and A_k*sin(theta_k)."""
    dt = v.data.dtype
    lim = ef._phase_limit(dt)
    a = _unary_op(u, ef._softplus, T._sigmoid)
    tanh = _unary_op(v, np.tanh, lambda x: 1 - np.tanh(x) ** 2)
    pi = dt.type(np.pi)
    theta = _clip_op(_unary_op(tanh, lambda x: x * pi, lambda x: pi), -lim, lim)
    return T.concat([T.mul(a, _unary_op(theta, np.cos, lambda x: -np.sin(x))),
                     T.mul(a, _unary_op(theta, np.sin, np.cos))])


def _pair_logits(dtype, amp_scale, seed=41):
    # a quarter of the phase logits at 1e3 saturate tanh, so pi*tanh lands
    # on +-pi and the clamp engages there
    rng = np.random.default_rng(seed)
    shape = (2, 6, 5, 8)
    u = amp_scale * rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    v.reshape(-1)[::4] *= 1e3
    return Tensor(u.astype(dtype)), Tensor(v.astype(dtype))


@pytest.mark.parametrize("amp_scale", [1.0, 1e3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_euler_pairs_forward_bit_equal_to_composed_chain(dtype, amp_scale):
    with T.using_dtype(dtype):
        u, v = _pair_logits(dtype, amp_scale)
        re, im = pair_parts(u, v)
        want = composed_pairs(u, v).data
    c = u.shape[-1]
    assert re.dtype == dtype
    assert np.array_equal(re, want[..., :c])
    assert np.array_equal(im, want[..., c:])


@pytest.mark.parametrize("amp_scale", [1.0, 1e3])
def test_euler_pairs_grads_match_composed_chain_float64(amp_scale):
    # oracle: the composed chain's interleaved pairs through the im2col
    # grouped conv (one group per channel), at both axes' kernels and pads
    rng = np.random.default_rng(46)
    with T.using_dtype(np.float64):
        u, v = _pair_logits(np.float64, amp_scale)
        c = u.shape[-1]
        clamped = np.abs(np.tanh(v.data) * np.pi) >= ef._phase_limit(np.dtype(np.float64))
        assert clamped.any() and not clamped.all()
        for axis, (kh, kw) in ef.KERNELS.items():
            w, b = Tensor(rng.standard_normal((kh, kw, 2, c))), Tensor(rng.standard_normal(c))
            pad = nn._same_pad(kh) + nn._same_pad(kw)
            g = rng.standard_normal(u.shape)
            with T.Tape() as tape:
                y = ef.euler_pair_conv(u, v, w, b, pad)
                grads = tape.grad(T.tsum(T.mul(y, Tensor(g))), [u, v, w, b])
            # channels k and c+k of the chain side by side at 2k and 2k+1,
            # the grouped conv's pair layout
            order = np.arange(2 * c).reshape(2, c).T.reshape(-1)
            with T.Tape() as tape:
                pairs = composed_pairs(u, v)
                y_ref, (d_pairs, dw_ref, db_ref) = im2col_conv2d(
                    pairs.data[..., order], w.data, b.data, g, 1, pad, groups=c)
                d_pairs = d_pairs[..., np.argsort(order)]
                du_ref, dv_ref = tape.grad(T.tsum(T.mul(pairs, Tensor(d_pairs))), [u, v])
            for got, want in zip((y.data, *grads), (y_ref, du_ref, dv_ref, dw_ref, db_ref)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max(), err_msg=axis)
            assert np.all(grads[1][clamped] == 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_euler_pair_backward_rebuilds_the_forwards_expansion(dtype):
    # the op keeps no A, cos or sin: its backward rebuilds them, and its
    # weight gradient must read the forward's re and im bit for bit, also
    # where the phase clamp engaged (the second probe sees only those pixels)
    rng = np.random.default_rng(47)
    with T.using_dtype(dtype):
        u, v = _pair_logits(dtype, 1.0)
        c = u.shape[-1]
        clamped = np.abs(np.tanh(v.data) * np.pi) >= ef._phase_limit(v.data.dtype)
        assert clamped.any() and not clamped.all()
        re, im = pair_parts(u, v)
        w = Tensor(np.ones((1, 1, 2, c)))
        g = rng.standard_normal(u.shape).astype(dtype)
        for probe in (g, g * clamped):
            with T.Tape() as tape:
                y = ef.euler_pair_conv(u, v, w, T.zeros((c,)), (0, 0, 0, 0))
                dw = tape.grad(T.tsum(T.mul(y, Tensor(probe))), [w])[0]
            assert np.array_equal(dw[0, 0, 0], np.einsum("nhwk,nhwk->k", re, probe))
            assert np.array_equal(dw[0, 0, 1], np.einsum("nhwk,nhwk->k", im, probe))


@pytest.mark.parametrize("dtype, v0", [(np.float32, 8.66), (np.float64, 18.49)],
                         ids=["float32", "float64"])
def test_phase_grad_is_zero_where_the_clamp_engages_below_tanh_one(dtype, v0):
    # here tanh(v) < 1, so pi * (1 - tanh(v)^2) is not zero, yet pi * tanh(v)
    # reaches the clamp: only the clamp mask zeroes the phase gradient
    with T.using_dtype(dtype):
        u = rx((1, 3, 4, 2), 48)
        v = Tensor(np.array([v0, -v0], dtype=dtype) * np.ones((1, 3, 4, 1), dtype))
        t = np.tanh(v.data)
        assert np.all(np.abs(t) < 1)
        assert np.all(np.abs(t * np.pi) >= ef._phase_limit(v.data.dtype))
        with T.Tape() as tape:
            y = ef.euler_pair_conv(u, v, rx((1, 3, 2, 2), 49), T.zeros((2,)), (0, 0, 1, 1))
            dv = tape.grad(T.tsum(T.mul(y, rx(y.shape, 50))), [v])[0]
    assert np.all(dv == 0)


def test_euler_pairs_refuses_mismatched_logits():
    w, b = rx((1, 3, 2, 2), 46), T.zeros((2,))
    with pytest.raises(ShapeError, match="euler pairs"):
        ef.euler_pair_conv(rx((1, 4, 4, 2), 44), rx((1, 4, 4, 3), 45), w, b, (0, 0, 1, 1))
    with pytest.raises(ShapeError, match="euler pair conv"):
        ef.euler_pair_conv(rx((1, 4, 4, 3), 44), rx((1, 4, 4, 3), 45), w, b, (0, 0, 1, 1))
    with pytest.raises(ShapeError, match="euler pairs"):  # logits that are not NHWC
        ef.euler_pair_conv(rx((4, 4, 2), 44), rx((4, 4, 2), 45), w, b, (0, 0, 1, 1))
    # a 1x3 pair kernel over a 2-wide map without padding has no output column
    with pytest.raises(ShapeError, match="output extent"):
        ef.euler_pair_conv(rx((1, 2, 2, 1), 44), rx((1, 2, 2, 1), 45), rx((1, 3, 2, 1), 46),
                           T.zeros((1,)), (0, 0, 0, 0))


def test_amplitude_and_phase_are_the_expansion_formula():
    # the inspection methods and the op share one formula
    stream, _ = make_stream(c=3, seed=42)
    x = rx((2, 4, 5, 3), 43, scale=10.0)
    for axis in ("h", "v"):
        re, im = pair_parts(*logits(stream, x, axis))
        a = stream.amplitude(x, axis).data
        th = stream.phase_angle(x, axis).data
        assert np.array_equal(re, a * np.cos(th))
        assert np.array_equal(im, a * np.sin(th))


def test_inspection_helpers_record_nothing_on_an_active_tape():
    stream, _ = make_stream(c=3, seed=42)
    x = rx((2, 4, 5, 3), 43)
    with T.Tape() as tape:
        stream(x)
        n = len(tape)
        for axis in ("h", "v"):
            stream.amplitude(x, axis)
            stream.phase_angle(x, axis)
        assert len(tape) == n
