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

@pytest.mark.parametrize("variant", M.VARIANTS)
def test_shape_ladder_all_variants(variant):
    cfg = small_config(variant=variant, b=2, hw=32)
    model = M.RdteUnet(cfg)
    taps = {}
    y = model.forward(rx((1, 32, 32, 1), 1), training=False, taps=taps)
    assert y.shape == (1, 32, 32, 3)
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
