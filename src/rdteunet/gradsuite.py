"""Named gradient-check suites for every differentiable operation.

Checks run under the 64-bit switch: central differences on deep composites
are meaningless at 32-bit for small-gradient coordinates, and the dtype
switch exists precisely to tighten this verification. The contract
tolerance is 1e-4 (2e-4 for the whole-model subset): the honest float64
errors are at most ~1e-6, and a gradient 1% off must fail its row.

Each check returns the gradcheck reports of one row; SCOPES names the rows.
The `tensor.elementwise_chain` row composes the elementwise tape ops the
model runs (relu, sigmoid, silu, add, sub and mul, one mul with a
one-element operand), and `model.param_subset` bumps each picked parameter
coordinate by that same one-element `mul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import asbe as ab
from . import eulerff as ef
from . import hvda as hv
from . import model as M
from . import nn
from . import stairconv as sc
from . import tensor as T
from .tensor import GradcheckReport, ParamStore, Tensor, gradcheck

EPS = 1e-5
TOL = 1e-4
TOL_FACTOR = {"model.param_subset": 2.0}  # rows checked at a multiple of the base tol

Check = Callable[[float], list[GradcheckReport]]  # tol -> the row's reports


@dataclass
class CheckRow:
    name: str
    max_rel_err: float
    passed: bool
    n_checked: int


def _rx(shape, seed):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def _probe_loss(y: Tensor, probe: Tensor) -> Tensor:
    return T.tsum(T.mul(y, probe))


# ---------------------------------------------------------------------------
# per-row checks

def check_elementwise(tol):
    x = _rx((10,), 1) * 0.8

    def f(v):
        a = T.silu(v)
        b = T.sigmoid(T.mul(a, v))
        c = T.relu(T.sub(v, b))  # on at 2 of the 10 points, each >= 0.068 from the kink
        d = T.add(T.mul(b, c), a)
        s = T.tsum(T.mul(d, d))
        return T.tsum(T.mul(T.sub(d, b), s))  # s is a one-element operand

    return [gradcheck(f, x, EPS, tol)]


def check_matmul(tol):
    reports = []
    # 2-D, then batched (2, 3, 4) @ (2, 4, 3)
    for seed, batch in ((2, ()), (67, (2,))):
        a = _rx(batch + (3, 4), seed)
        b = _rx(batch + (4, 3), seed + 1)
        reports += [
            gradcheck(lambda v: T.tsum(T.mul(T.matmul(v, b), T.matmul(v, b))), a, EPS, tol),
            gradcheck(lambda v: T.tsum(T.mul(T.matmul(a, v), T.matmul(a, v))), b, EPS, tol)]
    return reports


def check_softmax(tol):
    x = _rx((3, 5), 4)
    probe = _rx((3, 5), 5)
    return [gradcheck(lambda v: _probe_loss(T.softmax_channels(v), probe), x, EPS, tol)]


def check_conv2d(tol):
    reports = []
    # the second configuration pads the left side wider than the kernel: kernel
    # column 0 sees no real pixel, and output columns 0-2 see only padding
    for seed, xs, ws, kw, ps in ((6, (1, 4, 5, 2), (3, 2, 2, 3), dict(stride=2, pad=(1, 0, 2, 1)),
                                  (1, 2, 4, 3)),
                                 (26, (1, 3, 2, 2), (2, 3, 2, 3), dict(pad=(0, 0, 5, 0)),
                                  (1, 2, 5, 3))):
        x, w, b, probe = _rx(xs, seed), _rx(ws, seed + 1), _rx((3,), seed + 2), _rx(ps, seed + 3)
        reports += [
            gradcheck(lambda v: _probe_loss(nn.conv2d(v, w, b, **kw), probe), x, EPS, tol),
            gradcheck(lambda v: _probe_loss(nn.conv2d(x, v, b, **kw), probe), w, EPS, tol),
            gradcheck(lambda v: _probe_loss(nn.conv2d(x, w, v, **kw), probe), b, EPS, tol)]
    return reports


def check_conv2d_transpose(tol):
    x = _rx((1, 3, 3, 2), 13)
    w = _rx((2, 2, 3, 2), 14)
    probe = _rx((1, 6, 6, 3), 15)
    r1 = gradcheck(lambda v: _probe_loss(nn.conv2d_transpose(v, w), probe), x, EPS, tol)
    r2 = gradcheck(lambda v: _probe_loss(nn.conv2d_transpose(x, v), probe), w, EPS, tol)
    return [r1, r2]


def check_batch_norm(tol):
    x = _rx((2, 3, 3, 2), 16)
    probe = _rx((2, 3, 3, 2), 17)
    gamma, beta = _rx((2,), 18), _rx((2,), 19)

    def bn(v, g):
        return nn.batch_norm(v, g, beta, np.zeros(2), np.ones(2), True)

    r1 = gradcheck(lambda v: _probe_loss(bn(v, gamma), probe), x, EPS, tol)
    r2 = gradcheck(lambda v: _probe_loss(bn(x, v), probe), gamma, EPS, tol)
    return [r1, r2]


def check_layer_norm(tol):
    x = _rx((1, 2, 2, 3), 20)
    probe = _rx((1, 2, 2, 3), 21)
    gamma, beta = _rx((3,), 22), _rx((3,), 23)
    r1 = gradcheck(lambda v: _probe_loss(nn.layer_norm(v, gamma, beta), probe), x, EPS, tol)
    r2 = gradcheck(lambda v: _probe_loss(nn.layer_norm(x, v, beta), probe), gamma, EPS, tol)
    return [r1, r2]


def check_avg_pool(tol):
    x = _rx((1, 4, 4, 2), 24)
    probe = _rx((1, 4, 4, 2), 25)
    return [gradcheck(lambda v: _probe_loss(nn.avg_pool(v, 3), probe), x, EPS, tol)]


def check_mlp(tol):
    store = ParamStore(26)
    mlp = nn.Mlp(store, "m", 4)
    x = _rx((1, 2, 2, 4), 27)
    probe = _rx((1, 2, 2, 4), 28)
    r1 = gradcheck(lambda v: _probe_loss(mlp(v), probe), x, EPS, tol)

    def fw(v):
        store.set_value("m.fc1.w", v)
        return _probe_loss(mlp(x), probe)

    r2 = gradcheck(fw, store.value("m.fc1.w"), EPS, tol)
    return [r1, r2]


def check_resblock(tol):
    store = ParamStore(29)
    blk = nn.ResBlock(store, "rb", 2)
    x = _rx((1, 4, 4, 2), 30)
    probe = _rx((1, 4, 4, 2), 31)

    def f(v):
        return _probe_loss(blk(v, training=True), probe)

    return [gradcheck(f, x, EPS, tol)]


def _stair_check(axis, seed, tol):
    store = ParamStore(seed)
    stair = sc.StairConv(store, "s", axis, 2, 4, (4, 4), k=2)
    x = _rx((1, 4, 4, 2), seed + 1)
    probe = _rx((1, 4, 4, 4), seed + 2)

    def f(v):
        return _probe_loss(stair(v, training=True), probe)

    def fw(v):
        store.set_value("s.b2_" + ("left" if axis == sc.HORIZONTAL else "down") + ".conv.w", v)
        return _probe_loss(stair(x, training=True), probe)

    w0 = store.value("s.b2_" + ("left" if axis == sc.HORIZONTAL else "down") + ".conv.w")
    return [gradcheck(f, x, EPS, tol), gradcheck(fw, w0, EPS, tol)]


def check_hvda_branch(tol):
    store = ParamStore(40)
    branch = hv.HvdaBranch(store, "br", 2, (4, 4))
    x = _rx((1, 4, 4, 2), 41)
    probe = _rx((1, 4, 4, 2), 42)

    def f(v):
        return _probe_loss(branch(v, training=True), probe)

    return [gradcheck(f, x, EPS, tol)]


def check_hvda_attention(tol):
    store = ParamStore(43)
    attn = hv.HvdaAttention(store, "at", 2, (4, 4))
    x = _rx((1, 4, 4, 2), 44)
    probe = _rx((1, 4, 4, 2), 45)

    def f(v):
        return _probe_loss(attn(v, training=True), probe)

    def fq(v):
        store.set_value("at.proj_q.w", v)
        return _probe_loss(attn(x, training=True), probe)

    return [gradcheck(f, x, EPS, tol),
            gradcheck(fq, store.value("at.proj_q.w"), EPS, tol)]


def check_details_block(tol):
    store = ParamStore(46)
    blk = hv.DetailsTransformerBlock(store, "dtb", 4, (4, 4))
    x = _rx((1, 4, 4, 4), 47)
    probe = _rx((1, 4, 4, 4), 48)

    def f(v):
        return _probe_loss(blk(v, training=True), probe)

    return [gradcheck(f, x, EPS, tol)]


def check_arconv(tol):
    store = ParamStore(49)
    ar = ab.ArConv(store, "ar", 2)
    x = _rx((1, 5, 5, 2), 50)
    probe = _rx((1, 5, 5, 2), 51)
    r1 = gradcheck(lambda v: _probe_loss(ar(v), probe), x, EPS, tol)

    def fs(v):
        store.set_value("ar.shape2.w", v)
        return _probe_loss(ar(x), probe)

    def fk(v):
        store.set_value("ar.w", v)
        return _probe_loss(ar(x), probe)

    r2 = gradcheck(fs, store.value("ar.shape2.w"), EPS, tol)
    r3 = gradcheck(fk, store.value("ar.w"), EPS, tol)
    return [r1, r2, r3]


def check_asbe_stem(tol):
    store = ParamStore(52)
    stem = ab.AsbeStem(store, "st", 1, c_stem=4, c_mid=2)
    x = _rx((1, 6, 6, 1), 53)
    probe = _rx((1, 6, 6, 4), 54)
    return [gradcheck(lambda v: _probe_loss(stem(v), probe), x, EPS, tol)]


def check_euler_expand(tol):
    """Each axis' expansion and pair conv (`euler_pair_conv` after the
    amplitude and phase convs), in the stream input and the pair conv's
    weights and bias."""
    store = ParamStore(55)
    stream = ef.EulerStream(store, "es", 2)
    x = _rx((1, 3, 3, 2), 56)
    probe = _rx((1, 3, 3, 2), 57)
    reports = []
    for axis in (ef.HORIZONTAL, ef.VERTICAL):
        reports.append(gradcheck(lambda v: _probe_loss(stream.directional(v, axis), probe),
                                 x, EPS, tol))
        for name in stream.group[axis][:2]:
            def f(v):
                store.set_value(name, v)
                return _probe_loss(stream.directional(x, axis), probe)

            reports.append(gradcheck(f, store.value(name), EPS, tol))
    return reports


def check_euler_stream(tol):
    store = ParamStore(58)
    stream = ef.EulerStream(store, "es", 2)
    x = _rx((1, 4, 4, 2), 59)
    probe = _rx((1, 4, 4, 2), 60)
    return [gradcheck(lambda v: _probe_loss(stream(v), probe), x, EPS, tol)]


def check_euler_fuse(tol):
    store = ParamStore(61)
    fuse = ef.EulerFusion(store, "ff", 2)
    xd = _rx((1, 3, 3, 2), 62)
    probe = _rx((1, 3, 3, 2), 63)
    xs = _rx((1, 3, 3, 2), 64)
    r1 = gradcheck(lambda v: _probe_loss(fuse(v, xd), probe), xs, EPS, tol)
    r2 = gradcheck(lambda v: _probe_loss(fuse(xs, v), probe), xd, EPS, tol)
    return [r1, r2]


def check_loss(tol):
    rng = np.random.default_rng(65)
    labels = rng.integers(0, 3, size=(1, 4, 4))
    x = Tensor(rng.standard_normal((1, 4, 4, 3)))
    # 4 classes with class 2 absent from the labels: its Dice gradient is b_2 alone
    absent = rng.choice([0, 1, 3], size=(1, 4, 4))
    x4 = Tensor(rng.standard_normal((1, 4, 4, 4)))
    return [gradcheck(lambda v: M.segmentation_loss(v, labels), x, EPS, tol),
            gradcheck(lambda v: M.segmentation_loss(v, absent), x4, EPS, tol)]


def check_model_subset(tol):
    """sum(logits) gradient w.r.t. 20 random parameter coordinates.

    gradcheck differentiates a 20-vector delta whose entry k is added to the
    k-th picked coordinate: the bump is entry k, read out as a one-element
    tsum of delta times the k-th unit vector, times the coordinate's one-hot
    map. Each evaluation restores the values it replaced.
    Training-mode batch norm reads batch statistics and only writes its
    running buffers, so probes stay pure.
    """
    cfg = M.ModelConfig(h=32, w=32, in_channels=1, num_classes=4, base_width=16,
                        variant="full", seed=3)
    model = M.RdteUnet(cfg)
    store = model.store
    rng = np.random.default_rng(66)
    x = Tensor(rng.standard_normal((1, 32, 32, 1)))
    names = store.names()
    picks = []
    for _ in range(20):
        name = names[rng.integers(0, len(names))]
        flat = int(rng.integers(0, store.value(name).size))
        picks.append((name, flat))

    units = np.eye(len(picks))

    def f(delta):
        bases = {name: store.value(name) for name, _ in picks}
        for k, (name, flat) in enumerate(picks):
            onehot = np.zeros(bases[name].shape)
            onehot.reshape(-1)[flat] = 1.0
            bump = T.mul(T.tsum(T.mul(delta, Tensor(units[k]))), Tensor(onehot))
            store.set_value(name, T.add(store.value(name), bump))
        loss = T.tsum(model(x, training=True))
        for name, value in bases.items():
            store.set_value(name, value)
        return loss

    return [gradcheck(f, T.zeros((len(picks),)), EPS, tol)]


SCOPES: dict[str, dict[str, Check]] = {
    "tensor": {"tensor.elementwise_chain": check_elementwise, "tensor.matmul": check_matmul,
               "tensor.softmax": check_softmax},
    "nn": {"nn.conv2d": check_conv2d, "nn.conv2d_transpose": check_conv2d_transpose,
           "nn.batch_norm": check_batch_norm, "nn.layer_norm": check_layer_norm,
           "nn.avg_pool": check_avg_pool, "nn.mlp": check_mlp, "nn.resblock": check_resblock},
    "stair": {"stair.horizontal": lambda tol: _stair_check(sc.HORIZONTAL, 32, tol),
              "stair.vertical": lambda tol: _stair_check(sc.VERTICAL, 36, tol)},
    "hvda": {"hvda.branch": check_hvda_branch, "hvda.attention": check_hvda_attention,
             "hvda.details_block": check_details_block},
    "asbe": {"asbe.arconv": check_arconv, "asbe.stem": check_asbe_stem},
    "euler": {"euler.expand": check_euler_expand, "euler.stream": check_euler_stream,
              "euler.fuse": check_euler_fuse},
    "model": {"model.loss": check_loss, "model.param_subset": check_model_subset},
}


def run_row(name: str, check: Check) -> CheckRow:
    """One row under the float64 switch, at TOL times the row's factor."""
    tol = TOL * TOL_FACTOR.get(name, 1.0)
    with T.using_dtype(np.float64):
        reports = check(tol)
    err = max(r.max_rel_err for r in reports)
    return CheckRow(name, err, err <= tol, sum(r.n_checked for r in reports))


def run_suite(scope: str) -> list[CheckRow]:
    """Run one scope (or 'all')."""
    if scope == "all":
        names = list(SCOPES)
    elif scope in SCOPES:
        names = [scope]
    else:
        raise T.ConfigError(f"unknown gradcheck scope {scope!r}; "
                            f"choose from {list(SCOPES) + ['all']}")
    return [run_row(row, check) for s in names for row, check in SCOPES[s].items()]
