import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdteunet.nn as nn
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_silu_grad_at_large_inputs_is_the_closed_form(dtype):
    # the backward evaluates the sigmoid again; where it saturates the
    # gradient must stay finite and be exactly s * (1 + x * (1 - s))
    x = np.array([-1e4, -90, -30, 30, 90, 1e4], dtype=dtype)
    with T.using_dtype(dtype):
        v = Tensor(x)
        with Tape() as tape:
            g = tape.grad(T.tsum(T.silu(v)), [v])[0]
    s = T._sigmoid(x)
    assert g.dtype == dtype and np.isfinite(g).all()
    assert np.array_equal(g, s * (1 + x * (1 - s)))


def test_sigmoid_within_4_ulp_and_overflow_free():
    x = np.concatenate([np.linspace(-80, 80, 200001, dtype=np.float32),
                        np.random.default_rng(3).uniform(-80, 80, 10000).astype(np.float32)])
    extremes = np.array([-np.inf, -1e30, 1e30, np.inf], dtype=np.float32)
    with np.errstate(over="raise", invalid="raise"):
        s = T._sigmoid(x)
        ends = T._sigmoid(extremes)
        # both tape ops built on it, forward and backward
        for op in (T.sigmoid, T.silu):
            v = Tensor(np.concatenate([x, extremes[1:3]]))
            with Tape() as tape:
                tape.grad(T.tsum(op(v)), [v])
    ref = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    assert s.dtype == np.float32
    assert np.all(np.abs(s - ref) <= 4 * np.spacing(ref.astype(np.float32)))
    assert ends.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_add_definition():
    y = T.add(t([1.0, 2.0]), t([3.0, 4.0]))
    assert np.array_equal(y.data, [4.0, 6.0])


def test_binary_shape_error():
    with pytest.raises(ShapeError):
        T.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))


def test_channel_broadcast():
    # binary ops take equal shapes or a one-element operand; a channel
    # vector does not broadcast over a feature map
    x = t(np.ones((2, 3, 3, 4)))
    b = t(np.arange(4.0))
    with pytest.raises(ShapeError):
        T.add(x, b)
    with pytest.raises(ShapeError):
        T.mul(b, x)
    assert T.add(x, t([2.0])).shape == (2, 3, 3, 4)


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul], ids=["add", "sub", "mul"])
@pytest.mark.parametrize("shape", [(), (1,), (1, 1, 1, 1)], ids=["0d", "1", "1x1x1x1"])
def test_one_element_operand_gets_the_total_gradient(op, shape):
    rng = np.random.default_rng(8)
    with T.using_dtype(np.float64):
        x = Tensor(rng.standard_normal((2, 3, 3, 4)))
        s = Tensor(np.full(shape, 1.7))
        g = rng.standard_normal(x.shape)
        with Tape() as tape:
            y = op(x, s)
            gx, gs = tape.grad(T.tsum(T.mul(y, Tensor(g))), [x, s])
    # per op: the map's gradient and the one-element operand's
    want_x, want_s = {T.add: (g, g.sum()), T.sub: (g, -g.sum()),
                      T.mul: (g * 1.7, (g * x.data).sum())}[op]
    assert y.shape == x.shape and gs.shape == shape
    assert np.array_equal(gx, want_x)
    assert float(gs.reshape(())) == pytest.approx(want_s, rel=1e-12)


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
    store = ParamStore(0)
    w = store.add("w", t([1.0, 2.0, 3.0]))
    with Tape() as tape:
        loss = T.tsum(w)
        T.backward(tape, loss, store)
    assert np.array_equal(store["w"].grad, [1.0, 1.0, 1.0])


def test_backward_square():
    store = ParamStore(0)
    w = store.add("w", t([1.0, 2.0]))
    with Tape() as tape:
        loss = T.tsum(T.mul(w, w))
        T.backward(tape, loss, store)
    assert np.allclose(store["w"].grad, [2.0, 4.0])


def test_backward_unreachable_param_zero_grad():
    store = ParamStore(0)
    w = store.add("w", t([1.0]))
    store.add("unused", t([5.0, 6.0]))
    with Tape() as tape:
        loss = T.tsum(w)
        T.backward(tape, loss, store)
    assert np.array_equal(store["unused"].grad, [0.0, 0.0])


def test_backward_rejects_nonscalar_loss():
    store = ParamStore(0)
    w = store.add("w", t([1.0, 2.0]))
    with Tape() as tape:
        y = T.mul(w, w)
        with pytest.raises(ShapeError):
            T.backward(tape, y, store)


def test_a_swept_tape_refuses_a_second_sweep():
    x = t([1.0, 2.0])
    with Tape() as tape:
        loss = T.tsum(T.mul(x, x))
        assert np.array_equal(tape.grad(loss, [x])[0], [2.0, 4.0])
        assert len(tape) == 0
        with pytest.raises(T.ConfigError, match="already swept"):
            tape.grad(loss, [x])


def test_tape_entries_hold_node_ids_and_closures_only():
    x, w = t(np.ones((1, 4, 4, 2))), t(np.ones((3, 3, 2, 2)))
    with Tape() as tape:
        y = T.relu(T.add(nn.conv2d(x, w, pad=(1, 1, 1, 1)), x))
        T.tsum(T.mul(T.sigmoid(y), y))
    assert len(tape) == 6
    for node, inputs, backward in tape._entries:
        assert type(node) is int and all(type(i) is int for i in inputs)
        assert callable(backward)
    assert len({node for node, _, _ in tape._entries}) == len(tape)
    assert tape._entries[0][1] == (x.node, w.node)


def test_node_ids_are_never_reused():
    seen = set()
    for _ in range(100):
        a = t([1.0])  # freed at the next iteration, so its id() may come back
        assert a.node not in seen
        seen.add(a.node)


def test_dead_activations_are_freed_before_the_sweep():
    rng = np.random.default_rng(0)
    x = t(rng.standard_normal((2, 6, 6, 3)))
    w = t(rng.standard_normal((3, 3, 3, 3)))
    gamma, beta = t(np.ones(3)), t(np.zeros(3))
    with Tape() as tape:
        conv = nn.conv2d(x, w, pad=(1, 1, 1, 1))
        conv_data = weakref.ref(conv.data)
        bn = nn.batch_norm(conv, gamma, beta, np.zeros(3), np.ones(3), training=True)
        bn_data = weakref.ref(bn.data)
        y = T.add(T.relu(bn), x)
        del conv, bn
        # no backward reads the conv or the batch-norm output
        assert conv_data() is None and bn_data() is None
        dx, dw = tape.grad(T.tsum(T.mul(y, y)), [x, w])
    assert dx.shape == x.shape and dw.shape == w.shape


def test_sum_backward_any_shape():
    for shape in [(3,), (2, 2), (2, 3, 1), (1, 2, 2, 2)]:
        x = Tensor(np.random.default_rng(1).standard_normal(shape).astype(np.float32))
        with Tape() as tape:
            g = tape.grad(T.tsum(x), [x])[0]
        assert np.array_equal(g, np.ones(shape, dtype=np.float32))


def test_param_store_contracts():
    store = ParamStore(0)
    store.add("a", t([1.0]))
    with pytest.raises(T.ConfigError):
        store.add("a", t([2.0]))
    with pytest.raises(T.ConfigError):
        store.add("", t([2.0]))
    with pytest.raises(ShapeError):
        store.set_value("a", t([1.0, 2.0]))
    with pytest.raises(T.ConfigError):  # a draw the store would not take from its stream
        store.set_value("a", T.Uniform((1,), 1.0))
    assert store["a"].grad.shape == store["a"].value.shape
    with pytest.raises(T.ConfigError):  # once the arena exists, only a Tensor
        store.set_value("a", T.Fill((1,), 0.0))


# ---------------------------------------------------------------------------
# parameter arena

def _two_param_store():
    store = ParamStore(0)
    store.add("w", t([1.0, -2.0, 0.5]))
    store.add("unused", t([[5.0, 6.0], [7.0, 8.0]]))
    return store


def test_arena_accumulates_a_param_used_twice():
    store = _two_param_store()
    store.arena()
    w = store.value("w")

    def f():
        return T.add(T.tsum(T.mul(w, t([3.0, 1.0, -1.0]))), T.tsum(T.sigmoid(T.mul(w, w))))

    with Tape() as tape:
        T.backward(tape, f(), store)
    with Tape() as tape:  # a swept tape is consumed, so the reference runs on its own
        want = tape.grad(f(), [w])[0]
    assert np.array_equal(store["w"].grad, want)
    assert np.shares_memory(store["w"].grad, store.arena()[1])


def test_arena_zeroes_an_unreached_slot():
    store = _two_param_store()
    _, grads = store.arena()
    grads[...] = 9.0
    with Tape() as tape:
        T.backward(tape, T.tsum(store.value("w")), store)
    assert np.array_equal(store["w"].grad, [1.0, 1.0, 1.0])
    assert np.array_equal(store["unused"].grad, np.zeros((2, 2)))


def test_arena_refuses_add_after_packing():
    store = _two_param_store()
    store.arena()
    with pytest.raises(T.ConfigError, match="packed"):
        store.add("late", t([1.0]))


def test_arena_packing_keeps_grads_written_in_place():
    store = _two_param_store()
    store["w"].grad[...] = [1.0, 2.0, 3.0]
    store["unused"].grad[1, 0] = -4.0
    values, grads = store.arena()
    assert np.array_equal(grads, [1.0, 2.0, 3.0, 0.0, 0.0, -4.0, 0.0])
    assert np.array_equal(values, [1.0, -2.0, 0.5, 5.0, 6.0, 7.0, 8.0])
    assert np.array_equal(store["unused"].grad, [[0.0, 0.0], [-4.0, 0.0]])
    assert not store.value("w").data.flags.writeable


def test_arena_set_value_leaves_held_values_alone():
    store = _two_param_store()
    values, _ = store.arena()
    held = store.value("w")
    new = t([4.0, 4.0, 4.0])
    store.set_value("w", new)
    assert np.array_equal(held.data, [1.0, -2.0, 0.5])
    assert store.value("w") is new  # the next forward reads exactly this Tensor
    assert np.array_equal(values[:3], [1.0, -2.0, 0.5])
    store.arena()  # the optimizer path takes the new value into the arena
    assert np.array_equal(values[:3], [4.0, 4.0, 4.0])
    assert np.shares_memory(store.value("w").data, values)


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
        b = T.sigmoid(T.mul(a, a))
        c = T.add(T.relu(T.sub(v, b)), T.mul(b, a))  # v - b is >= 0.03 from the kink
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


def test_gradcheck_reports_a_non_finite_value():
    # NaN != NaN, so without this check two NaN passes read as nondeterminism
    with pytest.raises(FloatingPointError, match="nan"):
        gradcheck(lambda v: T.tsum(T.mul(v, t(np.nan))), t([1.0, 2.0]))
    with pytest.raises(FloatingPointError, match="inf"):
        gradcheck(lambda v: T.tsum(T.mul(v, t(np.inf))), t([1.0, 2.0]))


def test_gradcheck_eps_contract_float32():
    with pytest.raises(T.ConfigError):
        gradcheck(lambda x: T.tsum(x), t([1.0]), eps=1e-6)


# ---------------------------------------------------------------------------
# structural ops

def test_concat_and_grad():
    a, b = t([[1.0, 2.0]]), t([[3.0, 4.0, 5.0]])
    y = T.concat([a, b])
    assert y.shape == (1, 5)
    with Tape() as tape:
        loss = T.tsum(T.mul(T.concat([a, b]), T.concat([a, b])))
        ga, gb = tape.grad(loss, [a, b])
    assert np.allclose(ga, 2 * a.data)
    assert np.allclose(gb, 2 * b.data)


def test_reshape_grads():
    x = Tensor(np.arange(24.0, dtype=np.float32).reshape(2, 3, 4))
    assert T.reshape(x, (2, 4, 3)).shape == (2, 4, 3)
    # a non-constant probe, so a gradient routed to the wrong coordinate shows
    probe = Tensor(np.random.default_rng(2).standard_normal((2, 4, 3)).astype(np.float32))
    with Tape() as tape:
        y = T.reshape(x, (2, 4, 3))
        g = tape.grad(T.tsum(T.mul(y, probe)), [x])[0]
    assert np.array_equal(g, probe.data.reshape(2, 3, 4))


def test_reshape_to_another_size_is_a_shape_error():
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(5, 5\)"):
        T.reshape(t(np.zeros((2, 3, 4))), (5, 5))
    with pytest.raises(ShapeError):
        T.reshape(t(np.zeros((2, 3, 4))), (-1, 4))


@pytest.mark.parametrize("shapes", [((1, 2, 3, 2), (1, 2, 4, 2)), ((2, 3), (1, 2, 3))],
                         ids=["extent", "rank"])
def test_concat_of_unequal_parts_is_a_shape_error(shapes):
    with pytest.raises(ShapeError, match=r"\(1, 2, 3"):
        T.concat([t(np.zeros(s)) for s in shapes])


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
