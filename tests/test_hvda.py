import numpy as np
import pytest

import rdteunet.hvda as hv
import rdteunet.tensor as T
from rdteunet.tensor import ConfigError, ParamStore, Tensor


def rx(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((scale * rng.standard_normal(shape)).astype(T.default_dtype()))


def make_branch(extent, c=4, seed=0):
    store = ParamStore(seed)
    branch = hv.HvdaBranch(store, "br", c, extent)
    return branch, store


def make_attn(extent, c=4, seed=0, detail=True):
    store = ParamStore(seed)
    attn = hv.HvdaAttention(store, "at", c, extent, detail=detail)
    return attn, store


# ---------------------------------------------------------------------------
# branch

def test_branch_preserves_shape():
    branch, _ = make_branch((8, 8), c=4)
    y = branch(rx((1, 8, 8, 4), 1), training=False)
    assert y.shape == (1, 8, 8, 4)


def test_branch_zero_input_zero_output():
    branch, _ = make_branch((5, 5), c=3)
    x = Tensor(np.zeros((1, 5, 5, 3), dtype=np.float32))
    y = branch(x, training=False)
    assert np.allclose(y.data, 0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# attention math

def test_attention_map_rows_sum_to_one():
    rng = np.random.default_rng(10)
    for _ in range(20):
        q = Tensor(rng.standard_normal(9).astype(np.float32))
        k = Tensor(rng.standard_normal(9).astype(np.float32))
        b = hv.attention_map(q, k).data
        assert np.all(np.abs(b.sum(axis=1) - 1.0) <= 1e-5)
        assert np.all(b >= 0) and np.all(b <= 1)


def test_attention_uniform_limit_is_spatial_mean():
    rng = np.random.default_rng(11)
    v = Tensor(rng.standard_normal((8, 3)).astype(np.float32))
    zero = Tensor(np.zeros(8, dtype=np.float32))
    out = hv.attention_from_qkv(zero, zero, v).data
    mean = v.data.mean(axis=0, keepdims=True)
    assert np.allclose(out, np.broadcast_to(mean, out.shape), atol=1e-5)


def test_attention_constant_v_fixed_point():
    # spatially constant features: every convex combination returns them
    rng = np.random.default_rng(12)
    row = rng.standard_normal((1, 3)).astype(np.float32)
    v = Tensor(np.repeat(row, 6, axis=0))
    q = Tensor(rng.standard_normal(6).astype(np.float32))
    k = Tensor(rng.standard_normal(6).astype(np.float32))
    out = hv.attention_from_qkv(q, k, v).data
    assert np.allclose(out, v.data, atol=1e-5)


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(13)
    q = Tensor(rng.standard_normal(4).astype(np.float32))
    k = Tensor(rng.standard_normal(4).astype(np.float32))
    v = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
    perm = [2, 0, 3, 1]
    base = hv.attention_from_qkv(q, k, v).data
    shuffled = hv.attention_from_qkv(
        Tensor(q.data[perm]), Tensor(k.data[perm]), Tensor(v.data[perm])).data
    assert np.allclose(shuffled, base[perm], atol=1e-6)


# ---------------------------------------------------------------------------
# attention op

def test_attention_op_shape_and_residual():
    attn, store = make_attn((4, 4), c=4)
    x = rx((2, 4, 4, 4), 20)
    assert attn(x, training=False).shape == x.shape
    # the op carries no residual (the block adds it): a zero out-projection
    # gives exactly zero, not x
    for name in ("at.proj_out.w", "at.proj_out.b"):
        store.set_value(name, T.zeros(store.value(name).shape))
    assert np.all(attn(x, training=False).data == 0)


def test_attention_map_rows_on_module_pipeline():
    # per sample, on the module's own q/k/v maps: every attention-map row sums
    # to one, and the batched op equals proj_out(attention_from_qkv(q, k, v))
    attn, _ = make_attn((3, 3), c=3, seed=21)
    n, h, w, c = 2, 3, 3, 3
    x = rx((n, h, w, c), 22)
    out = attn(x, training=False).data
    qm = attn.proj_q(attn.branch_q(x, False)).data
    km = attn.proj_k(attn.branch_k(x, False)).data
    vm = attn.proj_v(attn.branch_v(x, False)).data
    for i in range(n):
        q, k = Tensor(qm[i].reshape(h * w)), Tensor(km[i].reshape(h * w))
        v = Tensor(vm[i].reshape(h * w, c))
        assert np.all(np.abs(hv.attention_map(q, k).data.sum(axis=1) - 1.0) <= 1e-5)
        att = hv.attention_from_qkv(q, k, v)
        expected = attn.proj_out(T.reshape(att, (1, h, w, c))).data[0]
        assert np.array_equal(out[i], expected)


def test_attention_uniform_limit_through_op():
    attn, store = make_attn((3, 3), c=3, seed=23)
    # zero Q/K projections -> uniform B; identity out-projection exposes the mean
    for name in ("at.proj_q.w", "at.proj_q.b", "at.proj_k.w", "at.proj_out.b"):
        store.set_value(name, T.zeros(store.value(name).shape))
    store.set_value("at.proj_out.w", Tensor(np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3)))
    x = rx((1, 3, 3, 3), 24)
    out = attn(x, training=False).data
    # expected: spatial mean of the V map, broadcast over positions
    fv = attn.branch_v(x, training=False)
    vm = attn.proj_v(fv).data
    mean = vm.mean(axis=(1, 2), keepdims=True)
    assert np.allclose(out, np.broadcast_to(mean, out.shape), atol=1e-5)


def test_attention_hw_cap():
    attn, _ = make_attn((65, 64), c=2)
    with pytest.raises(ConfigError):  # 65 * 64 positions, one row past the cap
        attn(rx((1, 65, 64, 2), 25), training=False)


def test_attention_gsa_variant_runs():
    attn, store = make_attn((4, 4), c=4, detail=False)
    assert not any("branch" in n for n in store.names())
    y = attn(rx((1, 4, 4, 4), 26), training=False)
    assert y.shape == (1, 4, 4, 4)


# ---------------------------------------------------------------------------
# details transformer block

def make_block(extent, c=4, seed=30, detail=True):
    store = ParamStore(seed)
    blk = hv.DetailsTransformerBlock(store, "dtb", c, extent, detail=detail)
    return blk, store


def test_block_preserves_shape():
    blk, _ = make_block((8, 8), c=8)
    y = blk(rx((1, 8, 8, 8), 31), training=False)
    assert y.shape == (1, 8, 8, 8)


def test_block_identity_when_projections_zeroed():
    blk, store = make_block((4, 4), c=4, seed=32)
    for s in (1, 2):
        for n in (f"dtb.sub{s}.attn.proj_out.w", f"dtb.sub{s}.attn.proj_out.b",
                  f"dtb.sub{s}.mlp.fc2.w", f"dtb.sub{s}.mlp.fc2.b"):
            store.set_value(n, T.zeros(store.value(n).shape))
    x = rx((2, 4, 4, 4), 33)
    y = blk(x, training=False)
    assert np.array_equal(y.data, x.data)  # bit-exact residual-only path
