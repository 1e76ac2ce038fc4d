import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdteunet.tensor as T
from rdteunet.tensor import (
    FormatError,
    NondeterminismError,
    ParamStore,
    ShapeError,
    Tape,
    Tensor,
    TruncationError,
    gradcheck,
    tensor_new,
)


def t(data):
    return Tensor(np.asarray(data, dtype=T.default_dtype()))


# ---------------------------------------------------------------------------
# construction and indexing

def test_new_zero_fill():
    x = tensor_new([2, 2], 0.0)
    assert x.shape == (2, 2)
    assert np.all(x.data == 0)


def test_new_from_data_indexing():
    x = tensor_new([1, 3], [1, 2, 3])
    assert x.data[0, 2] == 3


def test_new_length_mismatch():
    with pytest.raises(ShapeError):
        tensor_new([2, 3], [1, 2, 3, 4, 5])


def test_new_rejects_nonpositive_extent():
    with pytest.raises(ShapeError):
        tensor_new([2, 0], 1.0)


def test_new_copies_caller_buffer():
    buf = np.ones(4, dtype=np.float32)
    x = tensor_new([4], buf)
    buf[0] = 99.0
    assert x.data[0] == 1.0


def test_tensor_buffer_frozen():
    x = tensor_new([3], [1, 2, 3])
    with pytest.raises(ValueError):
        x.data[0] = 5.0


# ---------------------------------------------------------------------------
# elementwise

def test_relu_definition():
    y = T.relu(t([-1.0, 0.0, 2.0]))
    assert np.array_equal(y.data, [0.0, 0.0, 2.0])


def test_silu_zero():
    assert T.silu(t([0.0])).data[0] == 0.0


def test_add_definition():
    y = T.add(t([1.0, 2.0]), t([3.0, 4.0]))
    assert np.array_equal(y.data, [4.0, 6.0])


def test_binary_shape_error():
    with pytest.raises(ShapeError):
        T.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))


def test_channel_broadcast():
    x = t(np.ones((2, 3, 3, 4)))
    b = t(np.arange(4.0))
    y = T.add(x, b)
    assert y.shape == (2, 3, 3, 4)
    assert np.allclose(y.data[0, 0, 0], 1 + np.arange(4.0))
    # gradient sums over the broadcast dims
    with Tape() as tape:
        loss = T.tsum(T.add(x, b))
        gb = tape.grad(loss, [b])[0]
    assert np.allclose(gb, 18.0)


def test_softplus_stable():
    y = T.softplus(t([1000.0, -1000.0]))
    assert np.isfinite(y.data).all()
    assert y.data[0] == pytest.approx(1000.0)
    assert y.data[1] == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# matmul / softmax

def test_matmul_identity():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    y = T.matmul(t(np.eye(2)), a)
    assert np.allclose(y.data, a.data)


def test_matmul_hand_value():
    y = T.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
    assert y.data[0, 0] == 11.0


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))


def test_matmul_batched_matches_slices():
    rng = np.random.default_rng(4)
    a = t(rng.standard_normal((3, 4, 5)))
    b = t(rng.standard_normal((3, 5, 2)))
    y = T.matmul(a, b).data
    assert y.shape == (3, 4, 2)
    for i in range(3):
        assert np.array_equal(y[i], T.matmul(t(a.data[i]), t(b.data[i])).data)


@pytest.mark.parametrize("a_shape,b_shape", [((3, 4, 5), (2, 5, 2)), ((3, 4, 5), (5, 2)),
                                             ((4, 5), (3, 5, 2)), ((5,), (5, 2))],
                         ids=["batch", "rank_3x2", "rank_2x3", "rank_1x2"])
def test_matmul_batch_shape_errors(a_shape, b_shape):
    with pytest.raises(ShapeError):
        T.matmul(t(np.zeros(a_shape)), t(np.zeros(b_shape)))


def test_matmul_associativity():
    rng = np.random.default_rng(0)
    a, b, c = (t(rng.standard_normal((4, 4)).astype(np.float32)) for _ in range(3))
    left = T.matmul(T.matmul(a, b), c)
    right = T.matmul(a, T.matmul(b, c))
    assert np.allclose(left.data, right.data, atol=1e-4)


def test_softmax_symmetry():
    y = T.softmax_channels(t([[0.0, 0.0]]))
    assert np.allclose(y.data, [[0.5, 0.5]])


def test_softmax_no_overflow():
    y = T.softmax_channels(t([[1000.0, 1000.0]]))
    assert np.allclose(y.data, [[0.5, 0.5]])


def test_softmax_hand_ratio():
    # exp(0)=1, exp(ln 3)=3 -> 1/4, 3/4
    y = T.softmax_channels(t([[0.0, math.log(3.0)]]))
    assert np.allclose(y.data, [[0.25, 0.75]], atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
                min_size=1, max_size=4).filter(lambda r: len({len(x) for x in r}) == 1),
       st.floats(min_value=-10, max_value=10))
def test_softmax_rows_sum_and_shift_invariance(rows, c):
    x = np.asarray(rows, dtype=np.float32)
    y = T.softmax_channels(Tensor(x)).data
    assert np.all(np.abs(y.sum(axis=1) - 1.0) <= 1e-5)
    y2 = T.softmax_channels(Tensor(x + np.float32(c))).data
    assert np.allclose(y, y2, atol=1e-5)


def test_softmax_nan_flagged_by_validity_check():
    y = T.softmax_channels(t([[np.nan, 0.0]]))
    assert not T.is_finite(y)


# ---------------------------------------------------------------------------
# tape / backward

def test_backward_sum_gives_ones():
    store = ParamStore()
    w = store.add("w", t([1.0, 2.0, 3.0]))
    with Tape() as tape:
        loss = T.tsum(w)
        T.backward(tape, loss, store)
    assert np.array_equal(store["w"].grad, [1.0, 1.0, 1.0])


def test_backward_square():
    store = ParamStore()
    w = store.add("w", t([1.0, 2.0]))
    with Tape() as tape:
        loss = T.tsum(T.mul(w, w))
        T.backward(tape, loss, store)
    assert np.allclose(store["w"].grad, [2.0, 4.0])


def test_backward_unreachable_param_zero_grad():
    store = ParamStore()
    w = store.add("w", t([1.0]))
    store.add("unused", t([5.0, 6.0]))
    with Tape() as tape:
        loss = T.tsum(w)
        T.backward(tape, loss, store)
    assert np.array_equal(store["unused"].grad, [0.0, 0.0])


def test_backward_rejects_nonscalar_loss():
    store = ParamStore()
    w = store.add("w", t([1.0, 2.0]))
    with Tape() as tape:
        y = T.mul(w, w)
        with pytest.raises(ShapeError):
            T.backward(tape, y, store)


def test_sum_backward_any_shape():
    for shape in [(3,), (2, 2), (2, 3, 1), (1, 2, 2, 2)]:
        x = Tensor(np.random.default_rng(1).standard_normal(shape).astype(np.float32))
        with Tape() as tape:
            g = tape.grad(T.tsum(x), [x])[0]
        assert np.array_equal(g, np.ones(shape, dtype=np.float32))


def test_param_store_contracts():
    store = ParamStore()
    store.add("a", t([1.0]))
    with pytest.raises(T.ConfigError):
        store.add("a", t([2.0]))
    with pytest.raises(T.ConfigError):
        store.add("", t([2.0]))
    with pytest.raises(ShapeError):
        store.set_value("a", t([1.0, 2.0]))
    assert store["a"].grad.shape == store["a"].value.shape


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_linear_exact():
    rep = gradcheck(lambda x: T.tsum(x), t([0.3, -0.7, 1.1]), eps=1e-3, tol=1e-6)
    assert rep.passed
    assert rep.max_rel_err < 1e-6


def test_gradcheck_relu_away_from_kinks():
    x = t([0.5, -0.7, 1.3, -2.0])
    rep = gradcheck(lambda v: T.tsum(T.relu(v)), x, eps=1e-3, tol=1e-2)
    assert rep.passed


def test_gradcheck_chain_rule_float32():
    # composed op chain on a random 10-element input, 32-bit contract
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(0.2, 1.5, size=10).astype(np.float32))

    def f(v):
        a = T.silu(v)
        b = T.tanh(T.mul(a, a))
        c = T.add(T.sin(b), T.cos(a))
        return T.tsum(T.mul(c, c))

    rep = gradcheck(f, x, eps=1e-3, tol=1e-2)
    assert rep.passed


def test_gradcheck_matmul_softmax_float64():
    with T.using_dtype(np.float64):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 3)))

        def f(v):
            return T.tsum(T.softmax_channels(T.matmul(v, w)))

        # softmax rows sum to one, so perturbations nearly cancel; check a
        # value-weighted head instead to get informative gradients
        def f2(v):
            s = T.softmax_channels(T.matmul(v, w))
            return T.tsum(T.mul(s, s))

        rep = gradcheck(f2, x, eps=1e-5, tol=1e-6)
        assert rep.passed


def test_gradcheck_detects_nondeterminism():
    calls = {"n": 0}

    def f(v):
        calls["n"] += 1
        return T.tsum(T.mul(v, _coerce_scalar(float(calls["n"]))))

    def _coerce_scalar(s):
        return Tensor(np.asarray(s, dtype=T.default_dtype()))

    with pytest.raises(NondeterminismError):
        gradcheck(f, t([1.0, 2.0]))


def test_gradcheck_eps_contract_float32():
    with pytest.raises(T.ConfigError):
        gradcheck(lambda x: T.tsum(x), t([1.0]), eps=1e-6)


# ---------------------------------------------------------------------------
# structural ops

def test_concat_and_grad():
    a, b = t([[1.0, 2.0]]), t([[3.0, 4.0, 5.0]])
    y = T.concat([a, b], axis=1)
    assert y.shape == (1, 5)
    with Tape() as tape:
        loss = T.tsum(T.mul(T.concat([a, b], axis=1), T.concat([a, b], axis=1)))
        ga, gb = tape.grad(loss, [a, b])
    assert np.allclose(ga, 2 * a.data)
    assert np.allclose(gb, 2 * b.data)


def test_take_channels_grad_scatter():
    x = t([[1.0, 2.0, 3.0]])
    y = T.take_channels(x, [2, 0, 2])
    assert np.array_equal(y.data, [[3.0, 1.0, 3.0]])
    with Tape() as tape:
        g = tape.grad(T.tsum(T.take_channels(x, [2, 0, 2])), [x])[0]
    assert np.array_equal(g, [[1.0, 0.0, 2.0]])


def test_reshape_grads():
    x = Tensor(np.arange(24.0, dtype=np.float32).reshape(2, 3, 4))
    assert T.reshape(x, (2, 4, 3)).shape == (2, 4, 3)
    # a non-constant probe, so a gradient routed to the wrong coordinate shows
    probe = Tensor(np.random.default_rng(2).standard_normal((2, 4, 3)).astype(np.float32))
    with Tape() as tape:
        y = T.reshape(x, (2, 4, 3))
        g = tape.grad(T.tsum(T.mul(y, probe)), [x])[0]
    assert np.array_equal(g, probe.data.reshape(2, 3, 4))


def test_sum_axes_keepdims_grad():
    x = Tensor(np.arange(8.0, dtype=np.float32).reshape(2, 4))
    y = T.sum_axes(x, (0,))
    assert y.shape == (4,)
    with Tape() as tape:
        s = T.sum_axes(x, (1,), keepdims=True)
        g = tape.grad(T.tsum(T.mul(s, s)), [x])[0]
    expected = np.repeat(2 * x.data.sum(axis=1, keepdims=True), 4, axis=1)
    assert np.allclose(g, expected)


# ---------------------------------------------------------------------------
# RDTF format

def test_rdtf_roundtrip_bit_exact(tmp_path):
    x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 4)).astype(np.float32))
    p = tmp_path / "x.rdtf"
    T.write_rdtf(p, x)
    y = T.read_rdtf(p)
    assert y.shape == x.shape
    assert np.array_equal(y.data, x.data)


def test_rdtf_layout_bytes():
    x = tensor_new([1, 2], [1.0, 2.0])
    buf = io.BytesIO()
    T.write_rdtf_record(buf, x)
    raw = buf.getvalue()
    assert raw[:4] == b"RDTF"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # f32
    assert raw[6] == 2  # rank
    assert raw[7] == 0  # reserved
    assert raw[8:16] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    assert np.frombuffer(raw[16:], dtype="<f4").tolist() == [1.0, 2.0]


def test_rdtf_bad_magic(tmp_path):
    p = tmp_path / "bad.rdtf"
    p.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(FormatError):
        T.read_rdtf(p)


def test_rdtf_truncation(tmp_path):
    x = tensor_new([4], [1.0, 2.0, 3.0, 4.0])
    p = tmp_path / "x.rdtf"
    T.write_rdtf(p, x)
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(TruncationError):
        T.read_rdtf(p)


class _ReadLog(io.BytesIO):
    """Byte stream that records the size of every read."""

    def __init__(self, raw: bytes):
        super().__init__(raw)
        self.sizes = []

    def read(self, n=-1):
        self.sizes.append(n)
        return super().read(n)


@pytest.mark.parametrize("extents", [(65536,) * 4, (65536, 65536)],
                         ids=["count_wraps_int64", "16GiB_payload"])
def test_rdtf_overflowing_extents_truncation(extents):
    # (65536,)*4 wraps an int64 element count to 0; (65536, 65536) declares
    # 16 GiB. Either must fail before reading past the bytes the stream has.
    raw = b"RDTF" + bytes([1, 0, len(extents), 0]) \
        + b"".join(e.to_bytes(4, "little") for e in extents) + bytes(16)
    f = _ReadLog(raw)
    with pytest.raises(TruncationError):
        T.read_rdtf_record(f)
    assert max(f.sizes) <= len(raw)
