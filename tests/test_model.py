import ast
import ctypes
import hashlib
import inspect
import math
import types

import numpy as np
import pytest

import rdteunet.asbe as ab
import rdteunet.eulerff as ef
import rdteunet.model as M
import rdteunet.tensor as T
from rdteunet.tensor import (
    ConfigError,
    FormatError,
    ShapeError,
    Tape,
    Tensor,
    TruncationError,
)


def small_config(variant="full", b=2, hw=32, classes=3, seed=0):
    return M.ModelConfig(h=hw, w=hw, in_channels=1, num_classes=classes,
                         base_width=b, variant=variant, seed=seed)


def rx(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(T.default_dtype()))


# ---------------------------------------------------------------------------
# config

def test_config_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        M.ModelConfig(h=60, w=64).validate()
    with pytest.raises(ConfigError):
        M.ModelConfig(h=64, w=64, num_classes=1).validate()
    with pytest.raises(ConfigError):
        M.ModelConfig(h=64, w=64, variant="bogus").validate()
    with pytest.raises(ConfigError):
        M.ModelConfig(h=64, w=64, seed=-1).validate()


def test_config_dict_roundtrip_strict():
    cfg = small_config()
    again = M.ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        M.ModelConfig.from_dict({**cfg.to_dict(), "extra": 1})
    bad = cfg.to_dict()
    bad.pop("seed")
    with pytest.raises(ConfigError):
        M.ModelConfig.from_dict(bad)


def test_stage_widths_double():
    cfg = M.ModelConfig(base_width=16)
    assert cfg.stage_widths == [16, 32, 64, 128, 256]


# ---------------------------------------------------------------------------
# structure

def _record_shapes(layers, key, taps):
    """Wrap each callable of `layers` in place so it records its output shape
    in taps[key(i)]."""
    for i, layer in enumerate(layers):
        def wrapped(*args, _layer=layer, _name=key(i)):
            out = _layer(*args)
            taps[_name] = out.shape
            return out
        layers[i] = wrapped


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_shape_ladder_all_variants(variant):
    cfg = small_config(variant=variant, b=2, hw=32)
    model = M.RdteUnet(cfg)
    taps = {}
    _record_shapes(model.enc_blocks, lambda i: f"skip{i + 1}", taps)
    _record_shapes(model.down, lambda i: f"enc{i + 1}", taps)
    _record_shapes(model.dec_blocks, lambda j: f"dec{5 - j}", taps)
    y = model(rx((1, 32, 32, 1), 1), training=False)
    assert y.shape == (1, 32, 32, 3)
    assert len(taps) == 15
    for i in range(1, 6):
        assert taps[f"enc{i}"] == (1, 32 >> i, 32 >> i, 2 << i)
        assert taps[f"skip{i}"] == (1, 32 >> (i - 1), 32 >> (i - 1), 2 << (i - 1))
        assert taps[f"dec{i}"] == (1, 32 >> (i - 1), 32 >> (i - 1), 2 << (i - 1))


def test_forward_shape_error_names_expectation():
    model = M.RdteUnet(small_config())
    with pytest.raises(ShapeError, match=r"expects \(N, 32, 32, 1\)"):
        model(rx((1, 64, 64, 1), 2))


def test_eval_forward_deterministic():
    model = M.RdteUnet(small_config(seed=3))
    x = rx((1, 32, 32, 1), 4)
    assert np.array_equal(model(x).data, model(x).data)


def test_batch_consistency_eval_mode():
    # float64 here: the property under test is the absence of cross-sample
    # coupling, and at random init the attention softmax amplifies f32
    # reduction-order jitter past any fixed tolerance
    with T.using_dtype(np.float64):
        model = M.RdteUnet(small_config(seed=5))
        xa, xb = rx((1, 32, 32, 1), 6), rx((1, 32, 32, 1), 7)
        both = model(Tensor(np.concatenate([xa.data, xb.data], axis=0)))
        ya, yb = model(xa), model(xb)
        assert np.allclose(both.data[0], ya.data[0], atol=1e-5)
        assert np.allclose(both.data[1], yb.data[0], atol=1e-5)


# at the paper config (64x64, base_width 16); declarations only, nothing allocated
PAPER_N_PARAMETERS = {"full": 61_586_798, "no_asbe": 61_585_356, "no_hvda": 8_054_126,
                      "no_eulerff": 58_598_894}


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_paper_config_parameter_counts(variant):
    assert M.RdteUnet(M.ModelConfig(variant=variant)).n_parameters() \
        == PAPER_N_PARAMETERS[variant]


def test_no_eulerff_has_fewer_params():
    full = M.RdteUnet(small_config("full"))
    ablated = M.RdteUnet(small_config("no_eulerff"))
    assert ablated.n_parameters() < full.n_parameters()


def test_variants_share_interface():
    x = rx((1, 32, 32, 1), 8)
    for variant in M.VARIANTS:
        model = M.RdteUnet(small_config(variant, seed=9))
        assert model(x).shape == (1, 32, 32, 3)


# residual-terminal tensors that RdteUnet starts at zero
ZERO_INIT_SUFFIXES = (".attn.proj_out.w", ".mlp.fc2.w", ".block.bn2.gamma")
# in this float64 config a bias that a norm or softmax cancels gets a largest
# |grad| of at most 2.4e-15, every other tensor at least 4.5e-4
REACH_FLOOR = 1e-9


@pytest.mark.parametrize("variant", ["full", "no_hvda"])
def test_every_parameter_reaches_the_loss(variant):
    with T.using_dtype(np.float64):
        model = M.RdteUnet(small_config(variant, b=2, hw=32, classes=4))
        rng = np.random.default_rng(1)
        for name in model.store.names():
            if name.endswith(ZERO_INIT_SUFFIXES):
                shape = model.store.value(name).shape
                model.store.set_value(name, Tensor(0.1 * rng.standard_normal(shape)))
        labels = rng.integers(0, 4, size=(2, 32, 32))
        with Tape() as tape:
            loss = M.segmentation_loss(model(rx((2, 32, 32, 1), 2), training=True), labels)
        T.backward(tape, loss, model.store)
    dead = [n for n, p in model.store.items() if not np.abs(p.grad).max() > REACH_FLOOR]
    assert not dead, f"{len(dead)} parameter tensors never reach the loss: {dead[:8]}"


class _KeepingTape(Tape):
    """A tape that also keeps a Python reference to every recorded output
    and its inputs, so no activation is freed before the sweep."""

    def __init__(self):
        super().__init__()
        self.outputs = []

    def record(self, out, inputs, backward):
        self.outputs.append((out, inputs))
        super().record(out, inputs, backward)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_freeing_activations_changes_no_bit_of_a_train_step(variant):
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 4, size=(2, 32, 32))
    x = rng.standard_normal((2, 32, 32, 1))
    runs = []
    for tape_type in (Tape, _KeepingTape):
        with T.using_dtype(np.float64):
            model = M.RdteUnet(small_config(variant, b=2, hw=32, classes=4))
            with tape_type() as tape:
                loss = M.segmentation_loss(model(Tensor(x), training=True), labels)
                T.backward(tape, loss, model.store)
        runs.append((loss.data.tobytes(), model.store.arena()[1].tobytes()))
        if tape_type is _KeepingTape:
            assert len(tape.outputs) > 0 and len(tape) == 0
    assert runs[0] == runs[1]


def _closure_arrays(fn) -> list[np.ndarray]:
    """Every ndarray a closure reaches through its cells, nested functions,
    containers and Tensors."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
    return found


# ops whose backward rebuilds its intermediates from its inputs: the Euler
# A, cos and sin, the SiLU and size-map sigmoids, and the sampler's geometry
# and samples
REBUILDING_OPS = {"euler_pair_conv", "silu", "size_map", "arconv_sample"}


@pytest.mark.parametrize("variant", ["full", "no_hvda"])
def test_rebuilding_ops_hold_no_output_sized_array_beyond_their_inputs(variant):
    model = M.RdteUnet(small_config(variant, b=2, hw=32, classes=4))
    labels = np.random.default_rng(5).integers(0, 4, size=(2, 32, 32))
    with _KeepingTape() as tape:
        M.segmentation_loss(model(rx((2, 32, 32, 1), 5), training=True), labels)
    seen = set()
    for (out, inputs), (_, _, backward) in zip(tape.outputs, tape._entries):
        op = backward.__qualname__.split(".")[0]
        if op not in REBUILDING_OPS:
            continue
        seen.add(op)
        held = [a.shape for a in _closure_arrays(backward) if a.size >= out.size
                and not any(np.may_share_memory(a, t.data) for t in inputs)]
        assert not held, f"{op} keeps arrays of {held} beyond its inputs"
    assert seen == REBUILDING_OPS


def _tape_ops(module) -> set[str]:
    """The public functions of `module` that record on the tape, through
    `_rec(...)` or `T._rec(...)`."""
    def records(n):
        return isinstance(n, ast.Call) and "_rec" in (getattr(n.func, "id", None),
                                                      getattr(n.func, "attr", None))

    return {fn.name for fn in ast.parse(inspect.getsource(module)).body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and any(records(n) for n in ast.walk(fn))}


# per module, the tape ops no train step runs: `tsum` and `mul` form the probe
# reduction tsum(mul(y, probe)) of gradsuite and the tests' gradients
UNRUN_TAPE_OPS = {T: {"tsum", "mul"}, ab: set(), ef: set(), M: set()}


def test_a_train_step_reaches_every_tape_op_of_the_tensor_core(monkeypatch):
    # an op no train step runs belongs to no model, so it goes
    seen = {module.__name__: set() for module in UNRUN_TAPE_OPS}
    record = Tape.record

    def spy(self, out, inputs, backward):
        ops = seen.get(backward.__module__)
        if ops is not None:
            ops.add(backward.__qualname__.split(".")[0])
        record(self, out, inputs, backward)

    monkeypatch.setattr(Tape, "record", spy)
    labels = np.random.default_rng(3).integers(0, 3, size=(2, 32, 32))
    for variant in M.VARIANTS:
        model = M.RdteUnet(small_config(variant, b=2, hw=32))
        with Tape() as tape:
            loss = M.segmentation_loss(model(rx((2, 32, 32, 1), 4), training=True), labels)
        T.backward(tape, loss, model.store)
    for module, unrun in UNRUN_TAPE_OPS.items():
        # an exemption whose op is gone fails too
        assert unrun <= _tape_ops(module), module.__name__
        assert seen[module.__name__] == _tape_ops(module) - unrun, module.__name__


# ---------------------------------------------------------------------------
# loss

def test_ce_uniform_two_classes_is_ln2():
    # p = 1/2 everywhere; class 1 is absent, so its Dice is eps / (P + eps) with P = 16/2
    logits = Tensor(np.zeros((1, 4, 4, 2), dtype=np.float32))
    labels = np.zeros((1, 4, 4), dtype=np.int64)
    eps = M.DICE_EPS
    want = 0.5 * np.log(2.0) + 0.5 * (1 - eps / (8 + eps))
    assert M.segmentation_loss(logits, labels).item() == pytest.approx(want, abs=1e-6)


def _loss_case(kind):
    """(logits, labels) in float64: random 2-class; random 4-class with
    class 2 absent from the labels; +-8 logits, a quarter of them on a wrong class."""
    rng = np.random.default_rng({"k2": 20, "k4_absent_class": 21, "confident_8": 22}[kind])
    if kind == "k2":
        return rng.standard_normal((1, 4, 4, 2)), rng.integers(0, 2, size=(1, 4, 4))
    if kind == "k4_absent_class":
        labels = rng.choice([0, 1, 3], size=(2, 3, 4), p=[0.6, 0.2, 0.2])
        return 1.5 * rng.standard_normal((2, 3, 4, 4)), labels
    labels = rng.integers(0, 3, size=(1, 4, 4))
    hot = np.where(rng.random(labels.shape) < 0.25, (labels + 1) % 3, labels)
    logits = np.full((1, 4, 4, 3), -8.0)
    np.put_along_axis(logits, hot[..., None], 8.0, axis=-1)
    return logits, labels


def _loss_oracle(logits, labels):
    """The loss term by term in plain float64 numpy."""
    k = logits.shape[-1]
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    y = np.eye(k)[labels]
    ce = -np.take_along_axis(logp, labels[..., None], axis=-1).mean()
    axes = tuple(range(logits.ndim - 1))
    dice = (2 * (p * y).sum(axis=axes) + M.DICE_EPS) / (p.sum(axis=axes) + y.sum(axis=axes)
                                                       + M.DICE_EPS)
    return 0.5 * ce + 0.5 * (1 - dice[1:].mean())


LOSS_CASES = ["k2", "k4_absent_class", "confident_8"]


@pytest.mark.parametrize("kind", LOSS_CASES)
def test_loss_matches_numpy_oracle_float64(kind):
    logits, labels = _loss_case(kind)
    with T.using_dtype(np.float64):
        got = M.segmentation_loss(Tensor(logits), labels).item()
    assert got == pytest.approx(_loss_oracle(logits, labels), rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("kind", LOSS_CASES)
def test_loss_gradcheck_float64(kind):
    logits, labels = _loss_case(kind)
    with T.using_dtype(np.float64):
        x = Tensor(logits)
        with Tape() as tape:
            M.segmentation_loss(x, labels)
        assert len(tape) == 1
        # the +-8 case's correct-class gradients are ~1e-8, under gradcheck's
        # 1e-6 floor, so at eps 1e-5 the loss's float64 rounding over 2 eps
        # alone reads 4e-5; at 1e-3 each case's error is under 2e-7
        rep = T.gradcheck(lambda v: M.segmentation_loss(v, labels), x, eps=1e-3, tol=1e-6)
    assert rep.passed, rep.max_rel_err


def test_strongly_correct_logits_near_zero_loss():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 3, size=(1, 6, 6))
    logits = np.full((1, 6, 6, 3), -20.0, dtype=np.float32)
    np.put_along_axis(logits, labels[..., None], 20.0, axis=-1)
    loss = M.segmentation_loss(Tensor(logits), labels)
    # at +/-20 margins the 32-bit softmax is exactly one-hot, so the loss
    # may be exactly zero: "prediction is exact" at this precision
    assert 0.0 <= loss.item() < 1e-3

    margin8 = np.full((1, 6, 6, 3), -8.0, dtype=np.float32)
    np.put_along_axis(margin8, labels[..., None], 8.0, axis=-1)
    loss8 = M.segmentation_loss(Tensor(margin8), labels)
    assert 0.0 < loss8.item() < 1e-3


@pytest.mark.parametrize("logits_shape, label, error", [
    ((1, 2, 2, 3), 3, ConfigError),
    ((1, 2, 2, 3), np.nan, ConfigError),
    ((1, 2, 2, 3), np.inf, ConfigError),
    ((1, 2, 2, 3), -np.inf, ConfigError),
    ((1, 2, 2, 1), 0, ShapeError),
    ((0, 2, 2, 3), 0, ShapeError),
], ids=["label_range", "nan", "inf", "minus_inf", "one_class", "empty_batch"])
def test_label_range_error(logits_shape, label, error):
    logits = Tensor(np.zeros(logits_shape, dtype=np.float32))
    with pytest.raises(error):
        M.segmentation_loss(logits, np.full(logits_shape[:-1], label))


def test_loss_positive_unless_exact():
    labels = np.zeros((1, 4, 4), dtype=np.int64)
    logits = Tensor(np.zeros((1, 4, 4, 2), dtype=np.float32))
    assert M.segmentation_loss(logits, labels).item() > 0


# ---------------------------------------------------------------------------
# optimizer

def test_adam_descends_quadratic():
    store = T.ParamStore(0)
    target = np.asarray([1.0, -2.0, 0.5], dtype=np.float32)
    store.add("w", Tensor(np.zeros(3, dtype=np.float32)))
    opt = M.Adam(store, lr=0.05)
    for _ in range(300):
        with Tape() as tape:
            diff = T.sub(store.value("w"), Tensor(target))
            loss = T.tsum(T.mul(diff, diff))
            T.backward(tape, loss, store)
        opt.step()
    assert np.allclose(store.value("w").data, target, atol=1e-2)


@pytest.mark.parametrize("lr", [-1.0, 0.0, np.nan, np.inf])
def test_adam_rejects_non_positive_lr(lr):
    store = T.ParamStore(0)
    store.add("w", Tensor(np.zeros(3, dtype=np.float32)))
    with pytest.raises(ConfigError, match="lr"):
        M.Adam(store, lr=lr)


@pytest.mark.parametrize("max_norm", [-1.0, 0.0, np.nan])
def test_clip_grad_norm_rejects_non_positive_max_norm(max_norm):
    store = T.ParamStore(0)
    store.add("a", Tensor(np.full(3, 2.0, dtype=np.float32)))
    store["a"].grad[...] = [5.0, -3.0, 0.5]
    with pytest.raises(ConfigError, match="max_norm"):
        M.clip_grad_norm(store, max_norm)
    assert np.array_equal(store["a"].grad, np.float32([5.0, -3.0, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clip_grad_norm_rejects_non_finite_grad(bad):
    store = T.ParamStore(0)
    for name in ("a", "b", "c"):
        store.add(name, Tensor(np.full(3, 2.0, dtype=np.float32)))
    for name in ("a", "b", "c"):
        store[name].grad[...] = 5.0
    store["b"].grad[1] = bad
    store["c"].grad[0] = bad
    before = {n: (p.value.data.copy(), p.grad.copy()) for n, p in store.items()}
    with pytest.raises(FloatingPointError, match="'b'"):
        M.clip_grad_norm(store, 1.0)
    for name, p in store.items():
        value, grad = before[name]
        assert np.array_equal(p.value.data, value)
        assert np.array_equal(p.grad, grad, equal_nan=True)


def _ragged_store(rng, scale=None):
    """Three params over four sweep units, the last one ragged, and so also
    the last norm block."""
    b = M.SWEEP_BLOCK
    store = T.ParamStore(0)
    shapes = {"a": (b + 5,), "b": (2, b - 7), "c": (3, 41)}
    for name, shape in shapes.items():
        store.add(name, T.zeros(shape))
    for name, shape in shapes.items():
        store[name].grad[...] = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
                                 if scale is None else scale)
    assert store.n_scalars() % M.ARENA_BLOCK and store.n_scalars() > 3 * b
    return store


def test_a_sweep_unit_is_whole_norm_blocks():
    assert M.SWEEP_BLOCK % M.ARENA_BLOCK == 0 and M.SWEEP_BLOCK > M.ARENA_BLOCK


def test_clip_and_adam_over_sweep_units_are_bit_equal_to_inline(monkeypatch):
    runs = []
    for workers in (1, 0):
        monkeypatch.setattr(T, "_WORKERS", workers)
        store = _ragged_store(np.random.default_rng(5))
        opt = M.Adam(store, lr=1e-2)
        grads = store.arena()[1]
        # the squared norm adds one dot product per norm block, in block order
        blocks = (grads[lo:lo + M.ARENA_BLOCK] for lo in range(0, grads.size, M.ARENA_BLOCK))
        want = math.sqrt(sum(float(np.dot(g, g)) for g in blocks))
        norm = M.clip_grad_norm(store, 1.0)
        assert norm == want and norm > 1.0
        scaled = grads.tobytes()
        opt.step()
        runs.append((norm, scaled, store.arena()[0].tobytes()))
    for what, got, want in zip(("norm", "scaled grads", "Adam values"), *runs):
        assert got == want, what


def _norm64(store):
    return float(np.sqrt(sum((p.grad.astype(np.float64) ** 2).sum() for _, p in store.items())))


def test_clip_grad_norm_matches_float64_oracle():
    store = _ragged_store(np.random.default_rng(3))
    want = _norm64(store)
    before = {n: p.grad.astype(np.float64) for n, p in store.items()}
    norm = M.clip_grad_norm(store, want / 2)
    assert abs(norm - want) <= 1e-6 * want
    assert abs(_norm64(store) - want / 2) <= 1e-6 * want
    for name, p in store.items():
        assert np.allclose(p.grad, before[name] * (want / 2 / norm), rtol=1e-6, atol=0)


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e20), (np.float64, 1e160)])
def test_clip_grad_norm_clips_finite_grads_whose_squares_overflow(dtype, big):
    with T.using_dtype(dtype):
        store = _ragged_store(np.random.default_rng(4), scale=big)
    n = store.n_scalars()
    norm = M.clip_grad_norm(store, 1.0)
    assert abs(norm - big * np.sqrt(n)) <= 1e-6 * norm
    for _, p in store.items():
        assert np.allclose(p.grad, 1 / np.sqrt(n), rtol=1e-6, atol=0)


class PerTensorAdam:
    """The per-tensor Adam loop that the blocked arena update replaced; the
    blocked one must match it bit for bit."""

    def __init__(self, store, lr=1e-3):
        self.store, self.lr = store, lr
        self.t = 0
        self._m = {n: np.zeros_like(p.value.data) for n, p in store.items()}
        self._v = {n: np.zeros_like(p.value.data) for n, p in store.items()}

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        scale = self.lr / bc1
        for name, p in self.store.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            denom = np.sqrt(v / bc2)
            denom += 1e-8
            np.divide(m, denom, out=denom)
            denom *= scale
            p.value = Tensor(p.value.data - denom)


def _halve_head(model, opt, path):
    model.store.set_value("head.w", Tensor(model.store.value("head.w").data * 0.5))
    return model


def _round_trip(model, opt, path):
    M.save_checkpoint(model, path)
    opt.store = None
    del model
    loaded = M.load_checkpoint(path)
    opt.store = loaded.store
    return loaded


def _three_steps(make_opt, between, path):
    model = M.RdteUnet(small_config(b=2, seed=4))
    x = rx((2, 32, 32, 1), 5)
    y = np.random.default_rng(6).integers(0, 3, size=(2, 32, 32))
    opt = make_opt(model.store, lr=1e-2)
    for step in range(3):
        M.train_step(model, opt, x, y, math.inf)
        if step == 0:
            model = between(model, opt, path)
    return {n: p.value.data.copy() for n, p in model.store.items()}


@pytest.mark.parametrize("between", [_halve_head, _round_trip])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_adam_equals_per_tensor_adam(dtype, between, tmp_path):
    with T.using_dtype(dtype):
        want = _three_steps(PerTensorAdam, between, tmp_path / "oracle.rdtc")
        got = _three_steps(M.Adam, between, tmp_path / "arena.rdtc")
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == dtype
        assert np.array_equal(got[name], want[name]), name


def _explicit_step(model, opt, x, y, max_norm):
    """The train step written out: forward, loss, backward, clip, Adam."""
    with Tape() as tape:
        loss = M.segmentation_loss(model(x, training=True), y)
    T.backward(tape, loss, model.store)
    norm = M.clip_grad_norm(model.store, max_norm)
    opt.step()
    return loss.item(), norm


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_train_step_is_bit_equal_to_the_explicit_step(variant, dtype):
    y = np.random.default_rng(8).integers(0, 3, size=(2, 32, 32))
    runs = []
    for step in (_explicit_step, M.train_step):
        with T.using_dtype(dtype):
            model = M.RdteUnet(small_config(variant, b=2, seed=7))
            opt = M.Adam(model.store, lr=1e-2)
            loss, norm = step(model, opt, rx((2, 32, 32, 1), 9), y, 0.05)
        values, grads = model.store.arena()
        runs.append((loss, norm, grads.tobytes(), values.tobytes()))
    assert runs[0][1] > 0.05  # the clip scaled the gradients
    for what, want, got in zip(("loss", "norm", "grad arena", "value arena"), *runs):
        assert want == got, what


def test_train_step_counts_steps_across_a_checkpoint_round_trip(tmp_path):
    model = M.RdteUnet(small_config(b=2, seed=4))
    x = rx((2, 32, 32, 1), 5)
    y = np.random.default_rng(6).integers(0, 3, size=(2, 32, 32))
    opt = M.Adam(model.store, lr=1e-2)
    for k in (1, 2):
        M.train_step(model, opt, x, y, 1.0)
        assert model.step == k
    model = _round_trip(model, opt, tmp_path / "model.rdtc")
    assert model.step == 2
    M.train_step(model, opt, x, y, 1.0)
    assert model.step == opt.t == 3


def test_train_step_with_a_non_finite_gradient_raises_from_the_clip():
    model = M.RdteUnet(small_config(b=2, seed=4))
    head_b = model.store.value("head.b").data.copy()
    head_b[1] = np.nan  # class 1's logits are NaN, and so are the loss and its gradients
    model.store.set_value("head.b", Tensor(head_b))
    opt = M.Adam(model.store, lr=1e-2)
    before = model.store.arena()[0].tobytes()
    y = np.random.default_rng(6).integers(0, 3, size=(2, 32, 32))
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        M.train_step(model, opt, rx((2, 32, 32, 1), 5), y, 1.0)
    assert model.store.arena()[0].tobytes() == before
    assert model.step == opt.t == 0


def test_adam_refuses_a_store_of_another_size():
    store = T.ParamStore(0)
    store.add("w", T.zeros((3,)))
    opt = M.Adam(store)
    other = T.ParamStore(0)
    other.add("w", T.zeros((4,)))
    opt.store = other
    with pytest.raises(ConfigError, match="moments"):
        opt.step()


def test_adam_refuses_a_store_of_another_dtype():
    store = T.ParamStore(0)
    store.add("w", T.zeros((3,)))
    opt = M.Adam(store)
    with T.using_dtype(np.float64):
        other = T.ParamStore(0)
        other.add("w", T.zeros((3,)))
    other["w"].grad[...] = 1.0
    opt.store = other
    with pytest.raises(ConfigError, match="float64"):
        opt.step()
    assert opt.t == 0
    assert not other.arena()[0].any()


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def test_adam_serves_arenas_above_the_mmap_threshold_from_the_heap():
    # glibc would give each of these arenas its own mmap, unmapped when freed,
    # so a released model's arenas could not be reused by the next one's
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        pytest.skip("the C library has no mallinfo2")
    mallinfo2.argtypes, mallinfo2.restype = (), _Mallinfo2
    n = 9 << 20  # scalars: 36 MiB float32 arenas, above glibc's 32 MiB largest mmap threshold
    store = T.ParamStore(0)
    store.add("w", T.Fill((n,), 0.0))
    opt = M.Adam(store)  # its first read of the store allocates both arenas
    store["w"].grad[...] = 1.0
    opt.step()
    assert mallinfo2().hblkhd < n * np.dtype(np.float32).itemsize  # one arena's bytes


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = M.RdteUnet(small_config(seed=12))
    model.step = 17
    x = rx((1, 32, 32, 1), 13)
    before = model(x).data
    p = tmp_path / "m.rdtc"
    M.save_checkpoint(model, p)
    again = M.load_checkpoint(p)
    assert again.step == 17
    assert again.config == model.config
    assert np.array_equal(again(x).data, before)


def test_checkpoint_load_computes_no_initial_value(tmp_path, monkeypatch):
    model = M.RdteUnet(small_config(seed=18))
    x = rx((1, 32, 32, 1), 19)
    before = model(x).data
    M.save_checkpoint(model, tmp_path / "m.rdtc")

    def refuse(seed):
        raise AssertionError(f"a generator of seed {seed} was made to draw initial values")

    # the one generator a ParamStore makes, in `_allocate`, to draw its initial values
    monkeypatch.setattr(np.random, "default_rng", refuse)
    again = M.load_checkpoint(tmp_path / "m.rdtc")
    assert np.array_equal(again(x).data, before)


def test_a_loaded_store_starts_with_zero_grads(tmp_path):
    model = M.RdteUnet(small_config(seed=20))
    M.train_step(model, M.Adam(model.store), rx((1, 32, 32, 1), 21),
                 np.zeros((1, 32, 32), np.int64), math.inf)
    assert model.store.arena()[1].any()
    M.save_checkpoint(model, tmp_path / "m.rdtc")
    store = M.load_checkpoint(tmp_path / "m.rdtc").store
    grads = store.arena()[1]
    assert grads.size == store.n_scalars() and not grads.any()
    assert all(not p.grad.any() for _, p in store.items())


# SHA-256 of the float32 initial value arena of small_config(variant), as the
# layers gave it when each drew its weights at construction
INIT_ARENA_SHA256 = {
    "full": "2cf0ad14155e9846d840950ba1058c0732de04253a94ae66b569fc6b657b5824",
    "no_asbe": "01052c7f992521171ad406469ebfd56a8f728f1a63f295622aacf258af57c220",
    "no_hvda": "b33e641cf634ecc6264e65c6428cb3ea117946545de59b46ef54fa2f39859fb7",
    "no_eulerff": "94491080db89f7bdf4ab029254ff170c63107bd8891f2376bc384450b53d242d",
}


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_initial_arena_keeps_the_draw_order(variant):
    values, _ = M.RdteUnet(small_config(variant)).store.arena()
    assert values.dtype == np.float32
    assert hashlib.sha256(values.tobytes()).hexdigest() == INIT_ARENA_SHA256[variant]


# SHA-256 of the checkpoint layout of small_config(variant): one name:shape
# line per parameter, then one per buffer, in store order. A renamed,
# reshaped or reordered entry would fail to load every saved checkpoint.
LAYOUT_SHA256 = {
    "full": "8f101a1825274dbb38f7b3aeb78239b87b5aea07a5ab0ed56e0c034420239cf4",
    "no_asbe": "b0ed56a9a2d19240a9d20b759439e7fc679d7f757b61ecea514575a3413c825f",
    "no_hvda": "eec677b1fb21f0098f50fa33bfe4aec83c63a1bf39a6981bdb479453401d2aef",
    "no_eulerff": "156815ba62125712b27614bbf6efac82dd509fe9c7fd9cc819e992b4617990c5",
}


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_checkpoint_layout_keeps_names_shapes_and_order(variant):
    store = M.RdteUnet(small_config(variant)).store
    names = list(store.names()) + list(store.buffer_names())
    layout = "\n".join(f"{n}:{'x'.join(map(str, store.shape(n)))}" for n in names)
    assert hashlib.sha256(layout.encode()).hexdigest() == LAYOUT_SHA256[variant]


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.rdtc"
    p.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(FormatError):
        M.load_checkpoint(p)


def test_checkpoint_truncation(tmp_path):
    model = M.RdteUnet(small_config(seed=14))
    p = tmp_path / "m.rdtc"
    M.save_checkpoint(model, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncationError):
        M.load_checkpoint(p)


def test_checkpoint_overflowing_extents(tmp_path):
    # one entry whose RDTF header declares 65536^4 elements and no payload
    p = tmp_path / "big.rdtc"
    p.write_bytes(M.CKPT_MAGIC + bytes([1]) + (1).to_bytes(4, "little")
                  + (1).to_bytes(2, "little") + b"w"
                  + b"RDTF" + bytes([1, 0, 4, 0]) + (65536).to_bytes(4, "little") * 4)
    with pytest.raises(TruncationError):
        M.load_checkpoint(p)


def test_checkpoint_shape_mismatch(tmp_path):
    model = M.RdteUnet(small_config(seed=15))
    entries = {n: pr.value for n, pr in model.store.items()}
    for bn in model.store.buffer_names():
        entries[bn] = Tensor(model.store.buffer(bn).copy())
    entries["head.w"] = T.zeros((1, 1, 5, 5))
    p = tmp_path / "m.rdtc"
    M.write_checkpoint_raw(p, entries, {**model.config.to_dict(), "step": 0})
    with pytest.raises(FormatError, match="head.w"):
        M.load_checkpoint(p)


def test_checkpoint_unknown_and_missing_entries(tmp_path):
    model = M.RdteUnet(small_config(seed=16))
    entries = {n: pr.value for n, pr in model.store.items()}
    for bn in model.store.buffer_names():
        entries[bn] = Tensor(model.store.buffer(bn).copy())
    blob = {**model.config.to_dict(), "step": 0}

    p1 = tmp_path / "extra.rdtc"
    M.write_checkpoint_raw(p1, {**entries, "ghost.w": T.zeros((1,))}, blob)
    with pytest.raises(FormatError, match="ghost"):
        M.load_checkpoint(p1)

    p2 = tmp_path / "missing.rdtc"
    dropped = dict(entries)
    dropped.pop("head.w")
    M.write_checkpoint_raw(p2, dropped, blob)
    with pytest.raises(FormatError, match="missing"):
        M.load_checkpoint(p2)
