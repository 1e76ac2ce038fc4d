"""Named gradient-check suites for every differentiable operation.

Checks run under the 64-bit switch: central differences on deep composites
are meaningless at 32-bit for small-gradient coordinates, and the dtype
switch exists precisely to tighten this verification. The contract
tolerance is 1e-4 (2e-4 for the whole-model subset): the honest float64
errors are at most ~1e-6, and a gradient 1% off must fail its row.

SCOPES names the rows; `run_row` merges a row's gradcheck reports into one
report, passed at the row's tolerance. Most rows are data for one of two
builders, which differentiate the probe loss `tsum(mul(y, probe))`:
- `_arg_checks` checks an op in each of its tensor arguments, the others
  held fixed (softmax, conv2d, conv2d_transpose, batch and layer norm,
  avg_pool, Euler fusion);
- `_module_row` builds a layer on `ParamStore(seed)` and checks it in its
  input, then in each named parameter (the nn, stair, hvda, asbe and Euler
  stream layers).
Four rows are written by hand. `tensor.elementwise_chain` composes relu,
silu, add, sub and mul at equal shapes; `tensor.matmul` differentiates a
sum of squares; `model.loss` checks the loss on drawn labels; and
`model.param_subset` reads each coordinate's bump out of its delta vector
with two `matmul`s.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

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

Check = Callable[[], list[GradcheckReport]]


def _rx(shape, seed):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def _probe_loss(y: Tensor, probe: Tensor) -> Tensor:
    return T.tsum(T.mul(y, probe))


# ---------------------------------------------------------------------------
# row builders

def _arg_checks(op: Callable[..., Tensor], args: Sequence[Tensor],
                probe: Tensor) -> list[GradcheckReport]:
    """One gradcheck of the probe loss of `op(*args)` per argument, in order,
    with the other arguments held fixed."""
    reports = []
    for k, arg in enumerate(args):
        def f(v):
            return _probe_loss(op(*args[:k], v, *args[k + 1:]), probe)

        reports.append(gradcheck(f, arg, EPS))
    return reports


def _module_row(build: Callable[[ParamStore], Callable[[Tensor], Tensor]], x_shape, probe_shape,
                seed: int, params: Sequence[str] = ()) -> list[GradcheckReport]:
    """Gradchecks of the probe loss of a layer, in its input x and then in each
    named parameter, in order.

    `build` declares the layer on `ParamStore(seed)` and returns it as a
    function of x; x and the probe are drawn from seeds seed + 1 and seed + 2.
    A parameter's check leaves its last probed value in the store, so the
    checks after it see that value.
    """
    store = ParamStore(seed)
    layer = build(store)
    x, probe = _rx(x_shape, seed + 1), _rx(probe_shape, seed + 2)
    reports = [gradcheck(lambda v: _probe_loss(layer(v), probe), x, EPS)]
    for name in params:
        def f(v):
            store.set_value(name, v)
            return _probe_loss(layer(x), probe)

        reports.append(gradcheck(f, store.value(name), EPS))
    return reports


# ---------------------------------------------------------------------------
# hand-written rows

def check_elementwise():
    x = Tensor(np.random.default_rng(1).standard_normal(10) * 0.8)

    def f(v):
        a = T.silu(v)
        b = T.silu(T.mul(a, v))
        c = T.relu(T.sub(v, b))  # on at 8 of the 10 points, each >= 0.21 from the kink
        d = T.add(T.mul(b, c), a)
        return T.tsum(T.mul(T.sub(d, b), T.mul(d, d)))

    return [gradcheck(f, x, EPS)]


def check_matmul():
    reports = []
    # 2-D, then batched (2, 3, 4) @ (2, 4, 3)
    for seed, batch in ((2, ()), (67, (2,))):
        a = _rx(batch + (3, 4), seed)
        b = _rx(batch + (4, 3), seed + 1)
        reports += [
            gradcheck(lambda v: T.tsum(T.mul(T.matmul(v, b), T.matmul(v, b))), a, EPS),
            gradcheck(lambda v: T.tsum(T.mul(T.matmul(a, v), T.matmul(a, v))), b, EPS)]
    return reports


def check_loss():
    rng = np.random.default_rng(65)
    labels = rng.integers(0, 3, size=(1, 4, 4))
    x = Tensor(rng.standard_normal((1, 4, 4, 3)))
    # 4 classes with class 2 absent from the labels: its Dice gradient is b_2 alone
    absent = rng.choice([0, 1, 3], size=(1, 4, 4))
    x4 = Tensor(rng.standard_normal((1, 4, 4, 4)))
    return [gradcheck(lambda v: M.segmentation_loss(v, labels), x, EPS),
            gradcheck(lambda v: M.segmentation_loss(v, absent), x4, EPS)]


def check_model_subset():
    """sum(logits) gradient w.r.t. 20 random parameter coordinates.

    gradcheck differentiates a 20-vector delta whose entry k is added to the
    k-th picked coordinate: the bump is entry k, read out as the (1, 1)
    product of delta with the k-th unit column, times the coordinate's
    one-hot column. Each evaluation restores the values it replaced.
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
            coord = T.matmul(T.reshape(delta, (1, len(picks))), Tensor(units[:, k:k + 1]))
            bump = T.reshape(T.matmul(Tensor(onehot.reshape(-1, 1)), coord), onehot.shape)
            store.set_value(name, T.add(store.value(name), bump))
        loss = T.tsum(model(x, training=True))
        for name, value in bases.items():
            store.set_value(name, value)
        return loss

    return [gradcheck(f, T.zeros((len(picks),)), EPS)]


# ---------------------------------------------------------------------------
# the rows: tensors are drawn when a row runs, under the 64-bit switch

SCOPES: dict[str, dict[str, Check]] = {
    "tensor": {
        "tensor.elementwise_chain": check_elementwise,
        "tensor.matmul": check_matmul,
        "tensor.softmax": lambda: _arg_checks(
            T.softmax_channels, [_rx((3, 5), 4)], _rx((3, 5), 5)),
    },
    "nn": {
        # the second configuration pads the left side wider than the kernel: kernel
        # column 0 sees no real pixel, and output columns 0-2 see only padding
        "nn.conv2d": lambda: (
            _arg_checks(partial(nn.conv2d, stride=2, pad=(1, 0, 2, 1)),
                        [_rx((1, 4, 5, 2), 6), _rx((3, 2, 2, 3), 7), _rx((3,), 8)],
                        _rx((1, 2, 4, 3), 9))
            + _arg_checks(partial(nn.conv2d, pad=(0, 0, 5, 0)),
                          [_rx((1, 3, 2, 2), 26), _rx((2, 3, 2, 3), 27), _rx((3,), 28)],
                          _rx((1, 2, 5, 3), 29))),
        "nn.conv2d_transpose": lambda: _arg_checks(
            nn.conv2d_transpose, [_rx((1, 3, 3, 2), 13), _rx((2, 2, 3, 2), 14), _rx((3,), 69)],
            _rx((1, 6, 6, 3), 15)),
        "nn.batch_norm": lambda: _arg_checks(
            partial(nn.batch_norm, beta=_rx((2,), 19), running_mean=np.zeros(2),
                    running_var=np.ones(2), training=True),
            [_rx((2, 3, 3, 2), 16), _rx((2,), 18)], _rx((2, 3, 3, 2), 17)),
        "nn.layer_norm": lambda: _arg_checks(
            partial(nn.layer_norm, beta=_rx((3,), 23)),
            [_rx((1, 2, 2, 3), 20), _rx((3,), 22)], _rx((1, 2, 2, 3), 21)),
        "nn.avg_pool": lambda: _arg_checks(
            partial(nn.avg_pool, k=3), [_rx((1, 4, 4, 2), 24)], _rx((1, 4, 4, 2), 25)),
        "nn.mlp": lambda: _module_row(
            lambda s: nn.Mlp(s, "m", 4), (1, 2, 2, 4), (1, 2, 2, 4), 26, ["m.fc1.w"]),
        "nn.resblock": lambda: _module_row(
            lambda s: partial(nn.ResBlock(s, "rb", 2), training=True),
            (1, 4, 4, 2), (1, 4, 4, 2), 29),
    },
    "stair": {
        "stair.horizontal": lambda: _module_row(
            lambda s: partial(sc.StairConv(s, "s", sc.HORIZONTAL, 2, 4, (4, 4), k=2),
                              training=True),
            (1, 4, 4, 2), (1, 4, 4, 4), 32, ["s.b2_left.conv.w"]),
        "stair.vertical": lambda: _module_row(
            lambda s: partial(sc.StairConv(s, "s", sc.VERTICAL, 2, 4, (4, 4), k=2),
                              training=True),
            (1, 4, 4, 2), (1, 4, 4, 4), 36, ["s.b2_down.conv.w"]),
    },
    "hvda": {
        "hvda.branch": lambda: _module_row(
            lambda s: partial(hv.HvdaBranch(s, "br", 2, (4, 4)), training=True),
            (1, 4, 4, 2), (1, 4, 4, 2), 40),
        "hvda.attention": lambda: _module_row(
            lambda s: partial(hv.HvdaAttention(s, "at", 2, (4, 4)), training=True),
            (1, 4, 4, 2), (1, 4, 4, 2), 43, ["at.proj_q.w"]),
        "hvda.details_block": lambda: _module_row(
            lambda s: partial(hv.DetailsTransformerBlock(s, "dtb", 4, (4, 4)), training=True),
            (1, 4, 4, 4), (1, 4, 4, 4), 46, ["dtb.sub1.attn.branch_v.stair_h.b1_right.conv.w"]),
    },
    "asbe": {
        "asbe.arconv": lambda: _module_row(
            lambda s: ab.ArConv(s, "ar", 2), (1, 5, 5, 2), (1, 5, 5, 2), 49,
            ["ar.shape2.w", "ar.w"]),
        "asbe.stem": lambda: _module_row(
            lambda s: ab.AsbeStem(s, "st", 1, c_stem=4, c_mid=2),
            (1, 6, 6, 1), (1, 6, 6, 4), 52),
    },
    "euler": {
        # each axis' expansion and pair conv (`euler_pair_conv` after the amplitude
        # and phase convs), in the stream input and the pair conv's weights and bias
        "euler.expand": lambda: [
            r for axis in (ef.HORIZONTAL, ef.VERTICAL) for r in _module_row(
                lambda s: partial(ef.EulerStream(s, "es", 2).directional, axis=axis),
                (1, 3, 3, 2), (1, 3, 3, 2), 55, [f"es.group_{axis}.w", f"es.group_{axis}.b"])],
        "euler.stream": lambda: _module_row(
            lambda s: ef.EulerStream(s, "es", 2), (1, 4, 4, 2), (1, 4, 4, 2), 58),
        "euler.fuse": lambda: _arg_checks(
            ef.EulerFusion(ParamStore(61), "ff", 2),
            [_rx((1, 3, 3, 2), 64), _rx((1, 3, 3, 2), 62)], _rx((1, 3, 3, 2), 63)),
    },
    "model": {"model.loss": check_loss, "model.param_subset": check_model_subset},
}


def run_row(name: str, check: Check) -> GradcheckReport:
    """One row under the float64 switch, at TOL times the row's factor, as one
    report: the largest error of its checks and the coordinates they cover."""
    tol = TOL * TOL_FACTOR.get(name, 1.0)
    with T.using_dtype(np.float64):
        reports = check()
    err = max(r.max_rel_err for r in reports)
    return GradcheckReport(err, err <= tol, sum(r.n_checked for r in reports))


def run_suite(scope: str) -> dict[str, GradcheckReport]:
    """Run one scope (or 'all'), by row name."""
    if scope == "all":
        names = list(SCOPES)
    elif scope in SCOPES:
        names = [scope]
    else:
        raise T.ConfigError(f"unknown gradcheck scope {scope!r}; "
                            f"choose from {list(SCOPES) + ['all']}")
    return {row: run_row(row, check) for s in names for row, check in SCOPES[s].items()}
