"""The worker thread's contract: a train step gives the same bits with the
worker as fully inline, a job's error surfaces in the caller, the worker is
one thread, holds no finished job, and the conv weight gradients are written
straight into their grad slots."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import rdteunet.model as M
import rdteunet.nn as nn
import rdteunet.tensor as T
from rdteunet.tensor import Tape, Tensor


def small_model(variant="full", seed=0):
    return M.RdteUnet(M.ModelConfig(h=32, w=32, in_channels=1, num_classes=3,
                                    base_width=2, variant=variant, seed=seed))


def batch(seed=0):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((2, 32, 32, 1)).astype(T.default_dtype())),
            rng.integers(0, 3, size=(2, 32, 32)))


MAX_NORM = 0.05


def step_keeping_grads(model, opt, x, y):
    """`model.train_step` written out, returning the loss and a copy of the
    grad arena as the backward left it, before the clip scales it."""
    with Tape() as tape:
        loss = M.segmentation_loss(model(x, training=True), y)
        T.backward(tape, loss, model.store)
    grads = model.store.arena()[1].copy()
    M.clip_grad_norm(model.store, MAX_NORM)
    opt.step()
    return loss, grads


@pytest.fixture
def worker(monkeypatch):
    """Set the worker count of the test: 0 runs every job inline."""
    return lambda n: monkeypatch.setattr(T, "_WORKERS", n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_a_train_step_with_the_worker_is_bit_equal_to_inline(variant, dtype, worker):
    runs = []
    for workers in (1, 0):
        worker(workers)
        with T.using_dtype(dtype):
            model = small_model(variant)
            opt = M.Adam(model.store, lr=1e-2)
            x, y = batch(1)
            loss, grads = step_keeping_grads(model, opt, x, y)
            values = model.store.arena()[0]
        runs.append((loss.data.tobytes(), grads.tobytes(), values.tobytes()))
        if workers:
            assert T._worker._thread is not None and T._worker._thread.is_alive()
    assert runs[0][0] == runs[1][0], "loss"
    assert runs[0][1] == runs[1][1], "grad arena"
    assert runs[0][2] == runs[1][2], "value arena after clip and Adam"


@pytest.mark.parametrize("workers", [1, 0])
def test_a_failing_weight_gradient_job_surfaces_from_tape_grad(workers, worker, monkeypatch):
    worker(workers)
    model = small_model()
    opt = M.Adam(model.store, lr=1e-2)
    x, y = batch()
    weight_grad = nn._tap_weight_grad

    def fails(out, a, g):
        # the head conv's one tap: the first job a sweep submits, so it is
        # queued, not run in place of a full queue
        if out.shape == (2, 3):
            raise RuntimeError("weight gradient failed")
        weight_grad(out, a, g)

    monkeypatch.setattr(nn, "_tap_weight_grad", fails)
    with Tape() as tape:
        loss = M.segmentation_loss(model(x, training=True), y)
        with pytest.raises(RuntimeError, match="weight gradient failed"):
            T.backward(tape, loss, model.store)
    monkeypatch.setattr(nn, "_tap_weight_grad", weight_grad)
    loss, norm = M.train_step(model, opt, x, y, MAX_NORM)
    # the clip raises on a non-finite gradient, and a zero arena has norm 0
    assert np.isfinite(loss) and norm > 0


class _LaneOneFails:
    """An Adam scratch buffer whose worker lane (lane 1) fails at its first
    block."""

    def __init__(self, tmp):
        self.tmp = tmp

    def __getitem__(self, key):
        if key[0] == 1:
            raise RuntimeError("worker lane failed")
        return self.tmp[key]


@pytest.mark.parametrize("workers", [1, 0])
def test_a_failing_arena_block_surfaces_from_adam_step(workers, worker):
    worker(workers)
    model = small_model()
    opt = M.Adam(model.store, lr=1e-2)
    x, y = batch()
    M.train_step(model, opt, x, y, MAX_NORM)
    tmp = opt._tmp
    opt._tmp = _LaneOneFails(tmp)
    with pytest.raises(RuntimeError, match="worker lane failed"):
        opt.step()
    opt._tmp = tmp
    before = model.store.arena()[0].copy()
    loss, _ = M.train_step(model, opt, x, y, MAX_NORM)
    assert np.isfinite(loss)
    assert not np.array_equal(model.store.arena()[0], before)


def test_five_train_steps_start_at_most_one_thread(worker):
    worker(1)
    threads = threading.active_count()
    model = small_model()
    opt = M.Adam(model.store, lr=1e-2)
    x, y = batch()
    for _ in range(5):
        M.train_step(model, opt, x, y, MAX_NORM)
    assert threading.active_count() <= threads + 1


def test_the_worker_pins_no_dropped_model(worker, tmp_path):
    # a finished job must not keep a checkpointed-and-dropped model's arenas
    worker(1)
    model = small_model()
    opt = M.Adam(model.store, lr=1e-2)
    x, y = batch()
    M.train_step(model, opt, x, y, MAX_NORM)
    old_grads = weakref.ref(model.store.arena()[1])
    path = tmp_path / "model.rdtc"
    M.save_checkpoint(model, path)
    opt.store = None
    del model
    model = M.load_checkpoint(path)
    opt.store = model.store
    gc.collect()
    assert old_grads() is None
    M.train_step(model, opt, x, y, MAX_NORM)


@pytest.mark.parametrize("workers", [1, 0])
def test_backward_copies_no_conv_weight_gradient_into_the_grad_arena(workers, worker,
                                                                     monkeypatch):
    worker(workers)
    model = small_model()
    x, y = batch()
    conv_weights = set()
    for name in ("conv2d", "conv2d_transpose"):
        op = getattr(nn, name)

        def spy(x, w, *args, op=op, **kwargs):
            conv_weights.add(w.node)
            return op(x, w, *args, **kwargs)

        monkeypatch.setattr(nn, name, spy)
    arena = model.store.arena()[1]
    slots = {}  # grad slot id -> conv weight or not
    copied = {True: 0, False: 0}  # elements copied into conv weight / other slots
    copyto = np.copyto

    def counting_copy(dst, src, **kwargs):
        if np.may_share_memory(dst, arena):
            copied[slots[id(dst)]] += dst.size
        return copyto(dst, src, **kwargs)

    monkeypatch.setattr(np, "copyto", counting_copy)
    with Tape() as tape:
        loss = M.segmentation_loss(model(x, training=True), y)
    slots.update({id(p.grad): p.value.node in conv_weights for _, p in model.store.items()})
    T.backward(tape, loss, model.store)
    assert sum(slots.values()) > 0
    assert copied[True] == 0
    assert copied[False] > 0  # the other parameters' first contributions are copied


def test_sweep_arena_runs_every_block_once_under_fast_thread_switches(worker):
    # the shared block counter under a 1 us switch interval: a block pulled
    # twice or never shows as a count other than one
    worker(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n, block in ((1, 1), (997, 1), (1000, 7), (4096, 64)):
            hits = np.zeros(n, np.int64)
            lanes = set()

            def body(lo, hi, lane):
                hits[lo:hi] += 1
                lanes.add(lane)

            T.sweep_arena(n, block, body)
            assert (hits == 1).all(), (n, block)
            assert lanes <= {0, 1}
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("block", [0, -1])
@pytest.mark.parametrize("workers", [1, 0])
def test_sweep_arena_refuses_a_block_below_one(workers, block, worker):
    worker(workers)
    calls = []
    with pytest.raises(T.ConfigError, match="block"):
        T.sweep_arena(10, block, lambda lo, hi, lane: calls.append((lo, hi, lane)))
    assert calls == []
