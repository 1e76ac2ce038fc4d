"""Span tracer that measures the program's layers from outside.

While a Tracer is active it replaces a fixed list of the program's public
callables with timing wrappers, in every module of the package that holds a
reference to them, and puts the originals back when it is deactivated.
Backward time is measured by wrapping ``Tape.record``: each backward closure
is timed when the tape runs it and charged to the innermost wrapped layer
that was active when the closure was recorded.

Spans stay in memory as ``[name, kind, parent, phase, t0, t1]`` lists and
are written out once, at the end of the run. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from rdteunet import asbe, datasynth, eulerff, hvda, metrics, model, nn, stairconv, tensor

MODULES = (tensor, nn, stairconv, hvda, asbe, eulerff, model, metrics, datasynth)

# (owner, attribute, layer name) of every callable the traced run wraps
TARGETS = (
    (tensor.Tape, "grad", "tensor.Tape.grad"),
    (tensor, "backward", "tensor.backward"),
    (tensor, "read_rdtf_record", "tensor.read_rdtf_record"),
    (nn, "conv2d", "nn.conv2d"),
    (nn, "conv2d_transpose", "nn.conv2d_transpose"),
    (nn, "batch_norm", "nn.batch_norm"),
    (nn, "layer_norm", "nn.layer_norm"),
    (nn, "avg_pool", "nn.avg_pool"),
    (stairconv.StairConv, "__call__", "stairconv.StairConv"),
    (hvda.HvdaBranch, "__call__", "hvda.HvdaBranch"),
    (hvda.HvdaAttention, "__call__", "hvda.HvdaAttention"),
    (hvda.DetailsTransformerBlock, "__call__", "hvda.DetailsTransformerBlock"),
    (asbe.AsbeStem, "__call__", "asbe.AsbeStem"),
    (asbe, "arconv_sample", "asbe.arconv_sample"),
    (eulerff.EulerFusion, "__call__", "eulerff.EulerFusion"),
    (model.RdteUnet, "__init__", "model.RdteUnet.init"),
    (model.RdteUnet, "forward", "model.RdteUnet.forward"),
    (model, "segmentation_loss", "model.segmentation_loss"),
    (model, "clip_grad_norm", "model.clip_grad_norm"),
    (model.Adam, "step", "model.Adam.step"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (metrics, "evaluate", "metrics.evaluate"),
    (metrics, "hd95_flagged", "metrics.hd95_flagged"),
    (metrics, "dsc", "metrics.dsc"),
    (datasynth, "generate", "datasynth.generate"),
)

CALL, BWD, BENCH = "call", "bwd", "bench"

# layers whose forward (call) and backward (closure) self times are
# reported per train step
FWD_BWD_LAYERS = (
    "nn.conv2d", "nn.conv2d_transpose", "nn.batch_norm", "nn.layer_norm", "nn.avg_pool",
    "stairconv.StairConv", "hvda.HvdaBranch", "hvda.HvdaAttention",
    "hvda.DetailsTransformerBlock", "asbe.AsbeStem", "asbe.arconv_sample",
    "eulerff.EulerFusion", "model.RdteUnet.forward", "model.segmentation_loss",
)
# metric -> (phase, layer) of a call's self time, per operation of that phase
CALL_SELF_MS = {
    "tensor.Tape.grad.ms": ("train", "tensor.Tape.grad"),
    "tensor.backward.copy_ms": ("train", "tensor.backward"),
    "model.clip_grad_norm.ms": ("train", "model.clip_grad_norm"),
    "model.Adam.step.ms": ("train", "model.Adam.step"),
    "tensor.read_rdtf_record.ms": ("ckpt", "tensor.read_rdtf_record"),
    "model.save_checkpoint.ms": ("ckpt", "model.save_checkpoint"),
    "model.load_checkpoint.ms": ("ckpt", "model.load_checkpoint"),
    "model.load_checkpoint.init_ms": ("ckpt", "model.RdteUnet.init"),
    "model.RdteUnet.init_ms": ("setup", "model.RdteUnet.init"),
    "datasynth.generate.ms": ("setup", "datasynth.generate"),
    "metrics.evaluate.ms": ("evaluate", "metrics.evaluate"),
    "metrics.hd95_flagged.ms": ("evaluate", "metrics.hd95_flagged"),
    "metrics.dsc.ms": ("evaluate", "metrics.dsc"),
}
# metric -> benchmark span whose inclusive time is reported per train step
STEP_PARTS_MS = {
    "model.step.forward_ms": "model.step.forward",
    "model.step.backward_ms": "model.step.backward",
    "model.step.optimizer_ms": "model.step.optimizer",
}
# modules whose whole subtree (forward and backward) is also reported
INCLUSIVE_LAYERS = ("stairconv.StairConv", "hvda.HvdaBranch")
COVERAGE_TOLERANCE = 0.10


def _conv_gflop(args, kwargs, out) -> float:
    w = args[1] if len(args) > 1 else kwargs["w"]
    kh, kw, cig, _ = w.shape
    return 2.0 * out.size * kh * kw * cig / 1e9


# counters computed from a wrapped call's arguments and result
COUNTERS = {
    "nn.conv2d": ("nn.conv2d.gflop", _conv_gflop),
    "metrics.hd95_flagged": ("metrics.hd95.sentinels", lambda args, kwargs, out: int(out[1])),
}


def current_bindings() -> dict:
    """Every (owner, attribute) the tracer patches, mapped to its current value."""
    out = {(tensor.Tape, "record"): tensor.Tape.__dict__["record"]}
    for owner, attr, _ in TARGETS:
        orig = owner.__dict__[attr]
        out[(owner, attr)] = orig
        if not isinstance(owner, type):
            for mod in MODULES:
                for name, val in vars(mod).items():
                    if val is orig:
                        out[(mod, name)] = val
    return out


class Tracer:
    """Collects spans and counters while active; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: Counter = Counter()
        self.bwd_incl: defaultdict = defaultdict(float)
        self._originals = current_bindings()

    # -- spans -----------------------------------------------------------

    def _open(self, name: str, kind: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, kind, parent, self.phase, time.perf_counter(), None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][5] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code (its self time is the remainder)."""
        idx = self._open(name, BENCH)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, CALL)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[(self.phase, counter[0])] += counter[1](args, kwargs, out)
            return out

        return wrapper

    def _wrap_record(self, record):
        @functools.wraps(record)
        def wrapper(tape, out, inputs, backward):
            owner = self.spans[self.stack[-1]][0] if self.stack else "(none)"
            scope = {self.spans[i][0] for i in self.stack}
            self.counts[(self.phase, "tape.entries")] += 1
            self.counts[(self.phase, "tape.out_bytes")] += out.data.nbytes

            def timed(g):
                idx = self._open(owner, BWD)
                try:
                    return backward(g)
                finally:
                    self._close(idx)
                    dt = self.spans[idx][5] - self.spans[idx][4]
                    for name in scope:
                        self.bwd_incl[(self.phase, name)] += dt

            return record(tape, out, inputs, timed)

        return wrapper

    # -- activation ------------------------------------------------------

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block, then restore."""
        record_key = (tensor.Tape, "record")
        wrappers = {id(owner.__dict__[attr]): self._wrap(owner.__dict__[attr], name)
                    for owner, attr, name in TARGETS}
        wrappers[id(self._originals[record_key])] = self._wrap_record(
            self._originals[record_key])
        try:
            for (owner, attr), orig in self._originals.items():
                setattr(owner, attr, wrappers[id(orig)])
            yield self
        finally:
            for (owner, attr), orig in self._originals.items():
                setattr(owner, attr, orig)

    def restored(self) -> bool:
        """True when every patched attribute is the original object again."""
        return all(owner.__dict__[attr] is orig
                   for (owner, attr), orig in self._originals.items())

    # -- reduction -------------------------------------------------------

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, kind, parent, phase, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[5] - s[4] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, ops: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics; `ops` gives the operation count of each phase
        (train steps, checkpoint round trips, evaluate passes, setups)."""
        self_t = self._self_times()
        self_s: defaultdict = defaultdict(float)
        incl_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for span, st in zip(self.spans, self_t):
            name, kind, _, phase, t0, t1 = span
            self_s[(phase, name, kind)] += st
            incl_s[(phase, name, kind)] += t1 - t0
            calls[(phase, name, kind)] += 1

        def per(phase, value):
            return value / max(ops.get(phase, 0), 1)

        out = {}
        for layer in FWD_BWD_LAYERS:
            out[f"{layer}.fwd_ms"] = 1e3 * per("train", self_s[("train", layer, CALL)])
            out[f"{layer}.bwd_ms"] = 1e3 * per("train", self_s[("train", layer, BWD)])
        for layer in INCLUSIVE_LAYERS:
            total = incl_s[("train", layer, CALL)] + self.bwd_incl[("train", layer)]
            out[f"{layer}.incl_ms"] = 1e3 * per("train", total)
        for metric, (phase, layer) in CALL_SELF_MS.items():
            out[metric] = 1e3 * per(phase, self_s[(phase, layer, CALL)])
        for metric, name in STEP_PARTS_MS.items():
            out[metric] = 1e3 * per("train", incl_s[("train", name, BENCH)])
        out["nn.conv2d.calls"] = per("train", calls[("train", "nn.conv2d", CALL)])
        out["nn.conv2d.gflop"] = per("train", self.counts[("train", "nn.conv2d.gflop")])
        out["stairconv.StairConv.calls"] = per(
            "train", calls[("train", "stairconv.StairConv", CALL)])
        out["tensor.tape.entries"] = per("train", self.counts[("train", "tape.entries")])
        out["tensor.tape.out_mb"] = per(
            "train", self.counts[("train", "tape.out_bytes")]) / 2 ** 20
        out["metrics.hd95_flagged.calls"] = per(
            "evaluate", calls[("evaluate", "metrics.hd95_flagged", CALL)])
        out["metrics.hd95.sentinels"] = per(
            "evaluate", self.counts[("evaluate", "metrics.hd95.sentinels")])
        return out

    def coverage(self, step_idx: int, end_idx: int) -> float:
        """Share of one train step's wall time that the reported per-layer
        self times plus the benchmark's own remainder account for.

        `step_idx` is the step's span; spans step_idx..end_idx-1 were opened
        while it ran. Only self times that feed a reported ``*_ms`` metric
        of the train phase count, so a layer traced but not reported, or
        time counted twice, moves the result away from 1.
        """
        reported = {(layer, kind) for layer in FWD_BWD_LAYERS for kind in (CALL, BWD)}
        reported |= {(layer, CALL) for phase, layer in CALL_SELF_MS.values() if phase == "train"}
        self_t = self._self_times()
        covered = 0.0
        for i in range(step_idx, end_idx):
            name, kind = self.spans[i][0], self.spans[i][1]
            if kind == BENCH or (name, kind) in reported:
                covered += self_t[i]
        wall = self.spans[step_idx][5] - self.spans[step_idx][4]
        return covered / wall

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "kind", "parent", "phase", "t0", "t1"],
                       "spans": self.spans}, f)

