"""Dense float tensors with reverse-mode autodiff on an explicit tape.

Layout is row-major with channels last: 4-D feature maps are
(batch, height, width, channels). Tensors are immutable once constructed;
producing new values means producing new Tensors. The element dtype is
float32 by contract; a float64 switch exists to tighten gradient checks.

One exception to immutability is the parameter arena. A ParamStore owns
the seed of its initial values. Its `add` declares a parameter, its shape
and its initial value, and allocates or draws nothing. The first read of a
value, a gradient or `arena()` allocates one flat value arena and one flat
grad arena and writes every initial value straight into its slot, drawing
the random ones from one generator of that seed in add order; a loaded
checkpoint is read into a fresh value arena that the store adopts instead,
so no initial value is computed. From then on every parameter value is a
read-only Tensor view into the value arena, and every gradient a writable
view into the grad arena.
The optimizer is the single writer of the value arena and writes it only
between steps, so a value read during a forward and backward stays fixed
for that step. A caller that keeps a parameter value across a step copies it.

A Tape holds no Tensor. Each Tensor has a `node` id, drawn from one counter
and never reused, and a tape entry is the node id of an op's output, the
node ids of its inputs and the op's backward closure. A closure keeps only
what its backward reads: the op's inputs (of some only their shapes), or
its output in their place where the backward reads that (relu, softmax),
plus only what it cannot cheaply rebuild from them. An intermediate that
one pass over the inputs gives again (the sigmoid of SiLU and of the ASBE
size map, the Euler A, cos and sin, the sampler's samples) is recomputed in
the backward with the forward's expressions, so it is bit-equal to the
forward's and is not held until the sweep. An activation that no backward
reads is freed as soon as the forward drops its last Python name.
`Tape.grad` consumes its tape: it pops each entry before it runs the
entry's closure, so the sweep frees what the forward saved as it goes, and
a second sweep of the same tape raises ConfigError.

Concurrency. Where the process may run on two or more cores, one worker
thread, started at the first job, takes work off the calling thread; with
one core every job runs inline in the caller, through the same code, so
every value is the same either way. Two kinds of job exist. A closure whose
input is a parameter with a grad slot (`Tape.grad`'s `out`) writes that
gradient on its first contribution straight into the slot (`param_grad`);
the conv weight gradients do this as a worker job, while the closure goes
on to the input gradient. And `sweep_arena` splits a pass over an arena
into blocks that the caller and the worker pull one at a time. Closures
themselves run on the calling thread, and the tape and its sweep state are
the calling thread's. A job touches only NumPy arrays: it reads neither
`default_dtype()` nor the tape stack (both thread-local), runs under the
`np.errstate` that was in force where it was submitted, and calls nothing
that a tracer of this package's public callables would wrap. A job's error
is raised by the caller's next wait (`Tape.grad`, `sweep_arena`), after
every pending job has finished, and leaves the worker ready for the next.
"""

from __future__ import annotations

import collections
import functools
import io
import itertools
import json
import math
import os
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Shapes incompatible with the requested operation."""


class ConfigError(ValueError):
    """An operation was configured outside its supported envelope."""


class FormatError(ValueError):
    """A serialized tensor/checkpoint container is malformed."""


class TruncationError(ValueError):
    """A serialized file ended before the declared payload."""


class NondeterminismError(RuntimeError):
    """Two forward passes of a supposedly pure function disagreed."""


# ---------------------------------------------------------------------------
# dtype switch

_state = threading.local()


def default_dtype():
    return getattr(_state, "dtype", np.float32)


def set_default_dtype(dtype) -> None:
    if dtype not in (np.float32, np.float64):
        raise ConfigError(f"unsupported dtype {dtype!r}; float32 or float64 only")
    _state.dtype = dtype


class using_dtype:
    """Context manager that temporarily switches the element dtype."""

    def __init__(self, dtype):
        self.dtype = dtype

    def __enter__(self):
        self.prev = default_dtype()
        set_default_dtype(self.dtype)
        return self

    def __exit__(self, *exc):
        set_default_dtype(self.prev)
        return False


# ---------------------------------------------------------------------------
# worker thread

def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return 1


# worker threads beside the caller: one where the process may use two cores
_WORKERS = 1 if _cores() >= 2 else 0
# jobs that may wait for the worker; the caller runs a job past that itself
_QUEUE_DEPTH = 4


class _Worker:
    """One lazily started daemon thread that runs submitted jobs in order.

    `submit` queues a job, or runs it in the caller when there is no worker
    or the queue is full. `wait` returns once every job has finished: the
    caller runs the jobs the worker has not started, then waits for the one
    it is running, so a stalled worker costs at most that one job. A job's
    error is kept, and `wait` raises the first after all jobs are done. No
    finished job stays referenced, so a job keeps no array alive after it ran.
    """

    def __init__(self):
        self._cv = threading.Condition()
        self._queue: collections.deque = collections.deque()
        self._busy = False
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def submit(self, job: Callable[[], None]) -> None:
        if _WORKERS:
            with self._cv:
                if len(self._queue) < _QUEUE_DEPTH:
                    if self._thread is None:
                        self._thread = threading.Thread(
                            target=self._loop, name="rdteunet-worker", daemon=True)
                        self._thread.start()
                    self._queue.append((job, np.geterr()))
                    self._cv.notify()
                    return
        job()

    def wait(self) -> None:
        while True:
            with self._cv:
                if not self._queue:
                    while self._busy:
                        self._cv.wait()
                    error, self._error = self._error, None
                    break
                job, errstate = self._queue.popleft()
            self._run(job, errstate)
        if error is not None:
            raise error

    def _run(self, job, errstate) -> None:
        try:
            with np.errstate(**errstate):
                job()
        except Exception as e:  # kept for the caller, who raises it at its wait
            with self._cv:
                if self._error is None:
                    self._error = e

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue:
                    self._cv.wait()
                job, errstate = self._queue.popleft()
                self._busy = True
            self._run(job, errstate)
            job = None  # a finished job must not pin its arrays while the worker idles
            with self._cv:
                self._busy = False
                self._cv.notify_all()


_worker = _Worker()


def sweep_arena(n: int, block: int, body: Callable[[int, int, int], None]) -> None:
    """Run `body(lo, hi, lane)` for every block [lo, hi) of `block` elements
    of range(n). The caller (lane 0) and the worker (lane 1) pull the blocks
    one at a time from one counter, so which lane runs a block varies, and a
    stalled lane holds up at most one block. A body that writes only its own
    block, and buffers of its own lane, gives the same values as one loop.
    Returns when every block is done; raises the first error of either lane.
    """
    counter = itertools.count()
    lock = threading.Lock()

    def pull(lane: int) -> None:
        while True:
            with lock:
                lo = next(counter) * block
            if lo >= n:
                return
            body(lo, min(lo + block, n), lane)

    _worker.submit(functools.partial(pull, 1))
    try:
        pull(0)
    finally:
        _worker.wait()


# ---------------------------------------------------------------------------
# Tensor

_nodes = itertools.count()


class Tensor:
    """Immutable dense array of floats with shape metadata, and the unique
    `node` id that names it on a tape."""

    __slots__ = ("data", "node")

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.dtype != default_dtype():
            arr = arr.astype(default_dtype())
        if arr.flags.writeable:
            # a view over a still-writable base cannot be frozen safely
            if arr.base is not None and arr.base.flags.writeable:
                arr = arr.copy()
            arr.setflags(write=False)
        self.data = arr
        self.node = next(_nodes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    # `*` is `mul` at equal shapes, a number being a 0-d tensor (`_coerce`).
    # Both stay for perfbench's failure test: it multiplies the 0-d loss by
    # NaN and must see a NaN loss, not a TypeError.
    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=default_dtype()))


def tensor_new(shape: Sequence[int], fill) -> Tensor:
    """Build a tensor of `shape` from a scalar fill or flat data sequence.

    The caller's buffer is copied; mutations on it never show through.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"extents must be >= 1, got {shape}")
    n = int(np.prod(shape)) if shape else 1
    if np.isscalar(fill) or (isinstance(fill, np.ndarray) and fill.ndim == 0):
        arr = np.full(shape, fill, dtype=default_dtype())
    else:
        flat = np.asarray(fill, dtype=default_dtype()).reshape(-1)
        if flat.size != n:
            raise ShapeError(
                f"data length {flat.size} does not match product(shape)={n} for shape {shape}"
            )
        arr = flat.copy().reshape(shape)
    return Tensor(arr)


def zeros(shape) -> Tensor:
    return tensor_new(shape, 0.0)


# ---------------------------------------------------------------------------
# Tape

def _tapes() -> list:
    if not hasattr(_state, "tapes"):
        _state.tapes = []
    return _state.tapes


class Tape:
    """Ordered record of operations for one forward pass.

    An entry is `(output node, input nodes, backward closure)`: node ids and
    a closure, never a Tensor. The closure keeps the op's inputs, plus only
    what it cannot cheaply rebuild from them (see the module docstring).
    Entries are appended in execution order, so inputs always precede the
    entry that consumes them. `grad` consumes the tape: its sweep pops the
    entries in reverse, each before its closure runs, and a second sweep
    raises ConfigError. A tape belongs to one thread: entries are recorded
    and closures run on the thread that made them; only the jobs a closure
    submits through `param_grad` run on the worker (module docstring).
    """

    def __init__(self):
        self._entries: list[tuple[int, tuple[int, ...], Callable]] = []
        self._swept = False

    def __enter__(self):
        _tapes().append(self)
        return self

    def __exit__(self, *exc):
        popped = _tapes().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._entries)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._entries.append((out.node, tuple(t.node for t in inputs), backward))

    def grad(self, loss: Tensor, wrt: Iterable[Tensor],
             out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
        """Gradients of a scalar loss w.r.t. each tensor in `wrt`.

        Tensors unreachable from the loss get zero gradients. With `out`, one
        writable array per tensor of `wrt`, each gradient is accumulated in
        its array during the sweep, and `out` is returned. A first
        contribution is written into its array by the closure itself where
        the closure uses `param_grad` (then nothing is copied; the conv
        weights do this on the worker), and copied into it otherwise; later
        contributions are added in place, each after every pending job has
        finished. The sweep waits for every job before it returns, and
        raises the first error of one. The sweep empties the tape; a tape
        already swept raises ConfigError.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        if self._swept:
            raise ConfigError("this tape was already swept; record the forward on a new tape")
        self._swept = True
        wrt = list(wrt)
        keep = {t.node for t in wrt}
        slots = {} if out is None else {t.node: s for t, s in zip(wrt, out)}
        grads: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
        entries = self._entries
        outer, _state.sweep = getattr(_state, "sweep", None), (slots, grads)
        try:
            while entries:
                node, inputs, backward = entries.pop()
                g = grads.get(node) if node in keep else grads.pop(node, None)
                if g is None:
                    continue
                for i, gt in zip(inputs, backward(g)):
                    if gt is None:
                        continue
                    acc = grads.get(i)
                    slot = slots.get(i)
                    if slot is None:
                        grads[i] = gt if acc is None else acc + gt
                    elif acc is None:
                        if gt is not slot:
                            np.copyto(slot, gt)
                        grads[i] = slot
                    else:
                        _worker.wait()  # a job may still be writing this slot
                        slot += gt
        finally:
            _state.sweep = outer
            _worker.wait()
        if out is None:
            return [grads.get(t.node, np.zeros_like(t.data)) for t in wrt]
        for t, slot in zip(wrt, out):
            g = grads.get(t.node)
            if g is None:
                slot.fill(0)
            elif g is not slot:  # the loss itself, or a tensor listed twice in `wrt`
                np.copyto(slot, g)
        return list(out)


def _rec(out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    ts = _tapes()
    if ts:
        ts[-1].record(out, inputs, backward)
    return out


def param_grad(node: int, like: np.ndarray, fill: Callable[[np.ndarray], None]) -> np.ndarray:
    """The gradient for the tensor `node`, of like's shape and dtype, that
    `fill(out)` writes whole into `out`; for a closure to return.

    When the running `Tape.grad` sweep has a grad slot for `node` and this is
    its first contribution, `fill` is a worker job that writes straight into
    the slot, and the slot is returned: the sweep copies nothing, and waits
    for the job before it adds to the slot or returns. Otherwise `fill`
    writes a new array here.
    """
    sweep = getattr(_state, "sweep", None)
    if sweep is not None:
        slots, grads = sweep
        slot = slots.get(node)
        if slot is not None and node not in grads:
            _worker.submit(functools.partial(fill, slot))
            return slot
    out = np.empty_like(like)
    fill(out)
    return out


# ---------------------------------------------------------------------------
# ParamStore

@dataclass(frozen=True)
class Fill:
    """A constant initial value: every element of `shape` is `value`."""
    shape: tuple[int, ...]
    value: float

    def write(self, out: np.ndarray) -> None:
        out.fill(self.value)


@dataclass(frozen=True)
class Uniform:
    """A random initial value: U(-bound, bound) over the shape `drawn`, drawn
    by the store, of which the parameter keeps `window`, one slice per axis
    (the whole draw when None).

    The store draws the full `drawn` shape either way, so a kept value is
    bit-identical to the one an untrimmed declaration gives that position,
    and every later draw from the stream is unmoved. A conv layer that
    stores only its live kernel taps (nn.Conv2d's `extent`) declares its
    init this way.
    """
    drawn: tuple[int, ...]
    bound: float
    window: tuple[slice, ...] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        if self.window is None:
            return self.drawn
        return tuple(len(range(n)[s]) for n, s in zip(self.drawn, self.window))


@dataclass
class Param:
    value: Tensor
    grad: np.ndarray


class ParamStore:
    """Named trainable tensors with gradients, plus non-trainable buffers.

    `add(name, init)` declares a parameter by its initial value: a Tensor, a
    `Fill` or a `Uniform`. The store owns the seed of the random ones. The
    first read of any value or gradient, or `arena()`, allocates the value
    and grad arenas of the store's dtype once, in the order of `names()`:
    fills are written into their slots, and every `Uniform` is drawn, in
    add order, from one `np.random.default_rng(seed)` and its kept window
    written into its slot; grads start at zero, and later `add`s are refused.
    `adopt` installs a ready value arena instead, so no initial value is
    ever computed or drawn.

    A Tensor given to `add` or `set_value` is exactly what the next forward
    reads; its data enters the arena at the next `arena()` call.

    Buffers hold batch-norm running statistics, each allocated at its first
    read; they are mutated in place by their owning layer (single writer)
    and checkpointed alongside params.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.dtype = default_dtype()
        # before the arenas exist, a param's value is its initial value and its grad None
        self._params: dict[str, Param] = {}
        # every Uniform given to `add`, drawn in add order even if `set_value` replaced it
        self._draws: dict[str, Uniform] = {}
        self._buffers: dict[str, np.ndarray | Fill] = {}
        self._values: np.ndarray | None = None
        self._grads: np.ndarray | None = None
        # per param, in store order: (writable arena slot, read-only view Tensor)
        self._slots: list[tuple[np.ndarray, Tensor]] = []

    def add(self, name: str, init):
        """Declare parameter `name` with initial value `init`; returns `init`."""
        if not name:
            raise ConfigError("parameter name must be non-empty")
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if self._values is not None:
            raise ConfigError(f"cannot add parameter {name!r}: the store is packed")
        self._params[name] = Param(init, None)
        if isinstance(init, Uniform):
            self._draws[name] = init
        return init

    def add_buffer(self, name: str, init: Fill) -> None:
        if not name or name in self._buffers:
            raise ConfigError(f"bad or duplicate buffer name {name!r}")
        self._buffers[name] = init

    def __getitem__(self, name: str) -> Param:
        self._allocate()
        return self._params[name]

    def value(self, name: str) -> Tensor:
        return self[name].value

    def shape(self, name: str) -> tuple[int, ...]:
        """Shape of a parameter or buffer; allocates nothing."""
        p = self._params.get(name)
        return (self._buffers[name] if p is None else p.value).shape

    def set_value(self, name: str, value) -> None:
        """Make `value` the parameter's value and zero its gradient. Before
        the arenas exist, `value` may also be a `Fill`: it replaces the
        initial value, and nothing is allocated or drawn. A replaced
        `Uniform` is still drawn, so the draws after it do not move."""
        p = self._params[name]
        if value.shape != p.value.shape:
            raise ShapeError(
                f"param {name!r}: expected shape {p.value.shape}, got {value.shape}"
            )
        packed = self._values is not None
        if not isinstance(value, Tensor if packed else (Tensor, Fill)):
            raise ConfigError(f"param {name!r}: only a Tensor can be set, "
                              f"or a Fill before the arena exists")
        p.value = value
        if packed:
            p.grad.fill(0)

    def arena(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat value and grad arenas. Each call first copies into the
        value arena every Tensor given by `add` or `set_value` since."""
        self._allocate()
        for p, (slot, view) in zip(self._params.values(), self._slots):
            if p.value is not view:
                np.copyto(slot, p.value.data)
                p.value = view
        return self._values, self._grads

    def adopt(self, values: np.ndarray) -> None:
        """Make the flat array `values`, laid out in the order of `names()`,
        the value arena without copying it; no initial value is computed.
        Every gradient restarts at zero."""
        if values.shape != (self.n_scalars(),) or values.dtype != self.dtype:
            raise ShapeError(f"arena of {values.shape} {values.dtype} for "
                             f"{self.n_scalars()} {np.dtype(self.dtype)} scalars")
        self._install(values, np.zeros_like(values))

    def _allocate(self) -> None:
        """Allocate both arenas once and write every initial value into its
        slot, in add order, drawing each `Uniform` in float64 from one
        generator of the store's seed; a given Tensor stays the value read
        until `arena()`."""
        if self._values is not None:
            return
        inits = [p.value for p in self._params.values()]
        n = self.n_scalars()
        self._install(np.empty(n, self.dtype), np.zeros(n, self.dtype))
        rng = np.random.default_rng(self.seed)
        for (name, p), init, (slot, _) in zip(self._params.items(), inits, self._slots):
            draw = self._draws.get(name)
            if draw is not None:
                full = rng.uniform(-draw.bound, draw.bound, size=draw.drawn)
                slot[...] = full if draw.window is None else full[draw.window]
            if isinstance(init, Tensor):
                p.value = init
            elif isinstance(init, Fill):
                init.write(slot)

    def _install(self, values: np.ndarray, grads: np.ndarray) -> None:
        self._values, self._grads, self._slots = values, grads, []
        lo = 0
        with using_dtype(self.dtype):  # so Tensor keeps the view, never a cast copy
            for p in self._params.values():
                shape = p.value.shape
                hi = lo + math.prod(shape)
                slot = values[lo:hi].reshape(shape)
                view = slot.view()
                view.flags.writeable = False
                p.value = Tensor(view)
                p.grad = grads[lo:hi].reshape(shape)
                self._slots.append((slot, p.value))
                lo = hi

    def buffer(self, name: str) -> np.ndarray:
        """The named buffer; its first read allocates it with its initial value."""
        buf = self._buffers[name]
        if not isinstance(buf, np.ndarray):
            init, buf = buf, np.empty(buf.shape, self.dtype)
            init.write(buf)
            self._buffers[name] = buf
        return buf

    def names(self) -> list[str]:
        return list(self._params)

    def buffer_names(self) -> list[str]:
        return list(self._buffers)

    def items(self):
        self._allocate()
        return self._params.items()

    def n_scalars(self) -> int:
        return sum(math.prod(p.value.shape) for p in self._params.values())


def backward(tape: Tape, loss: Tensor, params: ParamStore) -> None:
    """Write d(loss)/d(param) into every param's grad in place, during the
    one reverse sweep; unreachable params get zeros."""
    ps = [p for _, p in params.items()]
    tape.grad(loss, [p.value for p in ps], out=[p.grad for p in ps])


# ---------------------------------------------------------------------------
# elementwise ops

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as exp(min(x, 0)) / (1 + exp(-|x|)).

    Both exponents are <= 0, so neither exp overflows, at +-inf either. For
    x >= 0 this is 1 / (1 + e^-x) and for x < 0 it is e^x / (1 + e^x), each
    sign's accurate form, and every element costs one evaluation of one
    formula: no per-sign branch is computed for elements it does not serve.
    SiLU, the ASBE size map and the Euler amplitude's backward use it.
    """
    den, num = np.empty_like(x), np.empty_like(x)  # arrays even for 0-d x
    np.negative(np.abs(x, out=den), out=den)
    np.exp(den, out=den)
    den += 1
    np.exp(np.minimum(x, 0, out=num), out=num)
    num /= den
    return num


def _check_binary(a: Tensor, b: Tensor) -> None:
    """Binary ops take equal shapes: nothing broadcasts."""
    if a.shape != b.shape:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")


def gemv_sum(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Sums of x over `axes` as one BLAS matrix-vector product of its
    (positions, channels) view with a ones vector: per channel, shape (C,),
    when `axes` is every axis but the last; per position, shape (..., 1),
    when `axes` is the last axis alone. numpy's reduction over the leading
    axes of a channels-last map runs ~20x slower than the product.
    """
    c = x.shape[-1]
    rows = x.reshape(-1, c)
    if axes == tuple(range(x.ndim - 1)):
        return np.ones(rows.shape[0], x.dtype) @ rows
    if axes in ((-1,), (x.ndim - 1,)):
        return (rows @ np.ones(c, x.dtype)).reshape(x.shape[:-1] + (1,))
    raise ConfigError(f"gemv_sum sums every axis but the last, or the last, "
                      f"not axes {axes} of shape {x.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    return _rec(Tensor(a.data + b.data), (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    return _rec(Tensor(a.data - b.data), (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """No model op calls it: it stays as `Tensor.__mul__` and as the probe
    reduction `tsum(mul(y, probe))` of gradsuite's rows and the tests."""
    _check_binary(a, b)
    x, y = a.data, b.data
    return _rec(Tensor(x * y), (a, b), lambda g: (g * y, g * x))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    y = out.data
    # y > 0 exactly where x > 0; the subgradient at 0 is 0
    return _rec(out, (a,), lambda g: (g * (y > 0),))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). The closure keeps only x: its backward evaluates the
    sigmoid again rather than holding a second map until the sweep."""
    x = a.data

    def bw(g):
        s = _sigmoid(x)
        return (g * (s * (1 + x * (1 - s))),)

    return _rec(Tensor(x * _sigmoid(x)), (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra / reductions / structure

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (..., k, n) -> (..., m, n), for equal leading (batch) shapes."""
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects (..., m, k) and (..., k, n) operands with equal "
                         f"batch shapes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dims differ: {a.shape} x {b.shape}")
    x, y = a.data, b.data
    return _rec(Tensor(x @ y), (a, b), lambda g: (g @ np.swapaxes(y, -1, -2),
                                                  np.swapaxes(x, -1, -2) @ g))


def softmax_channels(a: Tensor) -> Tensor:
    """Softmax over the last (channel) axis of an N-D tensor, stabilized by
    max subtraction."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = Tensor(e / e.sum(axis=-1, keepdims=True))
    p = out.data

    def bw(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return ((g - dot) * p,)

    return _rec(out, (a,), bw)


def tsum(a: Tensor) -> Tensor:
    shape, dt = a.shape, a.data.dtype
    out = Tensor(np.asarray(a.data.sum(dtype=dt)))
    return _rec(out, (a,), lambda g: (np.broadcast_to(g, shape).astype(dt, copy=False),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in `shape`, which names every extent (no -1)."""
    in_shape = a.shape
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {in_shape} ({a.size} elements) to {tuple(shape)}")
    return _rec(Tensor(a.data.reshape(shape)), (a,), lambda g: (g.reshape(in_shape),))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join along the last (channel) axis."""
    if not parts:
        raise ShapeError("concat of zero tensors")
    if len({p.shape[:-1] for p in parts}) != 1:
        raise ShapeError(f"concat joins the channel axis of parts equal in every other "
                         f"axis, got {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    splits = np.cumsum([p.shape[-1] for p in parts])[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=-1))

    return _rec(out, tuple(parts), bw)


def is_finite(a: Tensor) -> bool:
    """Validity check callers use to flag propagated NaN/Inf."""
    return bool(np.isfinite(a.data).all())


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradcheckReport:
    max_rel_err: float
    passed: bool
    n_checked: int

    def __bool__(self):
        return self.passed


def gradcheck(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-3,
              tol: float = 1e-2) -> GradcheckReport:
    """Compare analytic gradients of scalar-valued f against central differences.

    Per coordinate: n_i = (f(x+eps*e_i) - f(x-eps*e_i)) / (2*eps), and
    rel_err = |a-n| / max(|a|, |n|, 1e-6). Passes iff max rel err <= tol.
    Every coordinate is checked, so keep inputs away from kinks (e.g. exact
    ReLU zeros), which central differences cannot certify.
    """
    if default_dtype() == np.float32 and not (1e-4 <= eps <= 1e-2):
        raise ConfigError(f"eps={eps} outside [1e-4, 1e-2] for 32-bit floats")

    def f_pure(t: Tensor) -> Tensor:
        # throwaway tape so no evaluation of the check pollutes an outer tape
        with Tape():
            return f(t)

    y1 = f_pure(x)
    if y1.size != 1:
        raise ShapeError("gradcheck needs a scalar-valued function")
    if not is_finite(y1):
        raise FloatingPointError(f"f(x) is {y1.item()}; no gradient can be checked")
    if y1.item() != f_pure(x).item():
        raise NondeterminismError("two forward passes differ; check invalid")

    with Tape() as tape:
        loss = f(x)
        analytic = tape.grad(loss, [x])[0]

    flat = x.data.reshape(-1)
    a_flat = analytic.reshape(-1)
    max_rel = 0.0
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = float(bumped[i])
        f_plus = f_pure(Tensor(bumped.reshape(x.shape))).item()
        bumped[i] = flat[i] - eps
        lo = float(bumped[i])
        f_minus = f_pure(Tensor(bumped.reshape(x.shape))).item()
        # divide by the realized step: dtype rounding of x +/- eps would
        # otherwise dominate the error for 32-bit inputs
        numeric = (f_plus - f_minus) / (hi - lo)
        a = float(a_flat[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        max_rel = max(max_rel, rel)
    return GradcheckReport(max_rel_err=max_rel, passed=max_rel <= tol, n_checked=flat.size)


# ---------------------------------------------------------------------------
# RDTF tensor file format

RDTF_MAGIC = b"RDTF"


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncationError(f"expected {n} bytes, got {len(buf)}")
    return buf


def _json_object(raw: bytes, what: str) -> dict:
    """Parse UTF-8 JSON that must be an object; anything else is a FormatError."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8/JSON, huge int; deep nesting
        raise FormatError(f"{what} is not UTF-8 JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _bytes_left(f) -> int:
    """Bytes from the position of the seekable stream `f` to its end."""
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    return end - pos


def write_rdtf_record(f, t: Tensor) -> None:
    """Write one RDTF record: magic, version=1, dtype=0 (f32), rank, reserved,
    little-endian u32 extents, then row-major little-endian f32 values."""
    shape = t.shape
    f.write(RDTF_MAGIC)
    f.write(struct.pack("<BBBB", 1, 0, len(shape), 0))
    for s in shape:
        f.write(struct.pack("<I", s))
    f.write(np.ascontiguousarray(t.data, dtype="<f4").data)


def read_rdtf_header(f) -> tuple[int, ...]:
    """Read and check one RDTF header; return the shape. The payload of
    4 * prod(shape) bytes that follows is known to fit in the stream."""
    magic = _read_exact(f, 4)
    if magic != RDTF_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    version, dtype, rank, reserved = struct.unpack("<BBBB", _read_exact(f, 4))
    if version != 1:
        raise FormatError(f"unsupported version {version}")
    if dtype != 0:
        raise FormatError(f"unsupported dtype byte {dtype}")
    if reserved != 0:
        raise FormatError("reserved byte must be zero")
    if rank > 64:
        raise FormatError(f"rank {rank} exceeds the 64 dimensions an array can have")
    shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(rank))
    if any(s < 1 for s in shape):
        raise FormatError(f"non-positive extent in {shape}")
    # Python ints: a product of u32 extents cannot wrap, and a declared
    # payload longer than the stream fails before anything is allocated
    nbytes = 4 * math.prod(shape)
    left = _bytes_left(f)
    if nbytes > left:
        raise TruncationError(f"shape {shape} needs {nbytes} bytes, {left} left")
    return shape


def read_into(f, arr: np.ndarray) -> None:
    """Fill the C-contiguous array `arr` with the next arr.size little-endian
    f32 values of `f`, cast to arr's dtype."""
    raw = arr if arr.dtype == np.dtype("<f4") else np.empty(arr.shape, "<f4")
    n = f.readinto(memoryview(raw).cast("B"))
    if n != raw.nbytes:
        raise TruncationError(f"expected {raw.nbytes} bytes, got {n}")
    if raw is not arr:
        arr[...] = raw


def read_rdtf_record(f) -> Tensor:
    arr = np.empty(read_rdtf_header(f), dtype="<f4")
    read_into(f, arr)
    return Tensor(arr)


def write_rdtf(path, t: Tensor) -> None:
    with open(path, "wb") as f:
        write_rdtf_record(f, t)


def read_rdtf(path) -> Tensor:
    with open(path, "rb") as f:
        t = read_rdtf_record(f)
        if f.read(1):
            raise FormatError("trailing bytes after tensor record")
    return t
