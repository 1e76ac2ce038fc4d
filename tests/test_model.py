import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# loss

def test_ce_uniform_two_classes_is_ln2():
    logits = Tensor(np.zeros((1, 4, 4, 2), dtype=np.float32))
    labels = np.zeros((1, 4, 4), dtype=np.int64)
    ce = M.cross_entropy(logits, labels)
    assert ce.item() == pytest.approx(np.log(2.0), abs=1e-6)


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


def test_label_range_error():
    logits = Tensor(np.zeros((1, 2, 2, 3), dtype=np.float32))
    with pytest.raises(ConfigError):
        M.segmentation_loss(logits, np.full((1, 2, 2), 3))


def test_loss_positive_unless_exact():
    labels = np.zeros((1, 4, 4), dtype=np.int64)
    logits = Tensor(np.zeros((1, 4, 4, 2), dtype=np.float32))
    assert M.segmentation_loss(logits, labels).item() > 0


# ---------------------------------------------------------------------------
# optimizer

def test_adam_descends_quadratic():
    store = T.ParamStore()
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


@pytest.mark.parametrize("max_norm", [-1.0, 0.0, np.nan])
def test_clip_grad_norm_rejects_non_positive_max_norm(max_norm):
    store = T.ParamStore()
    store.add("a", Tensor(np.full(3, 2.0, dtype=np.float32)))
    store["a"].grad[...] = [5.0, -3.0, 0.5]
    with pytest.raises(ConfigError, match="max_norm"):
        M.clip_grad_norm(store, max_norm)
    assert np.array_equal(store["a"].grad, np.float32([5.0, -3.0, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clip_grad_norm_rejects_non_finite_grad(bad):
    store = T.ParamStore()
    for name in ("a", "b", "c"):
        store.add(name, Tensor(np.full(3, 2.0, dtype=np.float32)))
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
    """Three params over four arena blocks, the last one ragged."""
    b = M.ARENA_BLOCK
    store = T.ParamStore()
    for name, shape in (("a", (b + 5,)), ("b", (2, b - 7)), ("c", (3, 41))):
        store.add(name, T.zeros(shape))
        store[name].grad[...] = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
                                 if scale is None else scale)
    assert store.n_scalars() % b and store.n_scalars() > 3 * b
    return store


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
        with Tape() as tape:
            loss = M.segmentation_loss(model(x, training=True), y)
            T.backward(tape, loss, model.store)
        opt.step()
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


def test_adam_refuses_a_store_of_another_size():
    store = T.ParamStore()
    store.add("w", T.zeros((3,)))
    opt = M.Adam(store)
    other = T.ParamStore()
    other.add("w", T.zeros((4,)))
    opt.store = other
    with pytest.raises(ConfigError, match="moments"):
        opt.step()


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
