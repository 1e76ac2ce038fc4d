"""Dense float tensors with reverse-mode autodiff on an explicit tape.

Layout is row-major with channels last: 4-D feature maps are
(batch, height, width, channels). Tensors are immutable once constructed;
producing new values means producing new Tensors. The element dtype is
float32 by contract; a float64 switch exists to tighten gradient checks.
"""

from __future__ import annotations

import io
import math
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
# Tensor

class Tensor:
    """Immutable dense array of floats with shape metadata."""

    __slots__ = ("data",)

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

    def numpy(self) -> np.ndarray:
        """Copy of the underlying buffer (callers can never alias us)."""
        return self.data.copy()

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self) -> "Tensor":
        return tsum(self)

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, _coerce(-1.0))

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

    Entries are appended in execution order, so inputs always precede the
    entry that consumes them; the backward sweep walks the list once in
    reverse. A tape is single-threaded and thrown away after use.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

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
        self._entries.append((out, inputs, backward))

    def grad(self, loss: Tensor, wrt: Iterable[Tensor]) -> list[np.ndarray]:
        """Gradients of a scalar loss w.r.t. each tensor in `wrt`.

        Tensors unreachable from the loss get zero gradients.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        wrt = list(wrt)
        keep = {id(t) for t in wrt}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward in reversed(self._entries):
            g = grads.get(id(out))
            if g is None:
                continue
            if id(out) not in keep:
                del grads[id(out)]
            in_grads = backward(g)
            for t, gt in zip(inputs, in_grads):
                if gt is None:
                    continue
                acc = grads.get(id(t))
                grads[id(t)] = gt if acc is None else acc + gt
        return [grads.get(id(t), np.zeros_like(t.data)) for t in wrt]


def _rec(out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    ts = _tapes()
    if ts:
        ts[-1].record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# ParamStore

@dataclass
class Param:
    value: Tensor
    grad: np.ndarray


class ParamStore:
    """Named trainable tensors with gradients, plus non-trainable buffers.

    Buffers hold batch-norm running statistics; they are mutated in place
    by their owning layer (single writer) and checkpointed alongside params.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        self._buffers: dict[str, np.ndarray] = {}

    def add(self, name: str, value: Tensor) -> Tensor:
        if not name:
            raise ConfigError("parameter name must be non-empty")
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self._params[name] = Param(value, np.zeros_like(value.data))
        return value

    def add_buffer(self, name: str, arr: np.ndarray) -> np.ndarray:
        if not name or name in self._buffers:
            raise ConfigError(f"bad or duplicate buffer name {name!r}")
        self._buffers[name] = np.asarray(arr, dtype=default_dtype())
        return self._buffers[name]

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def value(self, name: str) -> Tensor:
        return self._params[name].value

    def set_value(self, name: str, value: Tensor) -> None:
        p = self._params[name]
        if value.shape != p.value.shape:
            raise ShapeError(
                f"param {name!r}: expected shape {p.value.shape}, got {value.shape}"
            )
        p.value = value
        p.grad = np.zeros_like(value.data)

    def buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def names(self) -> list[str]:
        return list(self._params)

    def buffer_names(self) -> list[str]:
        return list(self._buffers)

    def items(self):
        return self._params.items()

    def n_scalars(self) -> int:
        return sum(p.value.size for p in self._params.values())

    def snapshot_buffers(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._buffers.items()}

    def load_buffers(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in snap.items():
            self._buffers[k][...] = v


def backward(tape: Tape, loss: Tensor, params: ParamStore) -> None:
    """Fill every param's grad with d(loss)/d(param); unreachable params get zeros."""
    names = params.names()
    grads = tape.grad(loss, [params.value(n) for n in names])
    for name, g in zip(names, grads):
        params[name].grad = np.ascontiguousarray(g)


# ---------------------------------------------------------------------------
# elementwise ops

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # overflow-free for both signs: e = exp(-|x|) is always in (0, 1]
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


_UNARY = {
    "relu": (
        lambda x: np.maximum(x, 0),
        lambda x, y, g: g * (x > 0),  # subgradient at 0 is 0
    ),
    "tanh": (np.tanh, lambda x, y, g: g * (1 - y * y)),
    "cos": (np.cos, lambda x, y, g: -g * np.sin(x)),
    "sin": (np.sin, lambda x, y, g: g * np.cos(x)),
    "softplus": (_softplus, lambda x, y, g: g * _sigmoid(x)),
    "exp": (np.exp, lambda x, y, g: g * y),
    "sigmoid": (_sigmoid, lambda x, y, g: g * y * (1 - y)),
}


def _check_binary(a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    if a.size == 1 or b.size == 1:
        return
    # channel broadcast: a 1-D operand aligned with the other's last dim
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        return
    if a.data.ndim == 1 and b.data.ndim >= 1 and b.shape[-1] == a.shape[0]:
        return
    raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(fwd, dfa, dfb, a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    out = Tensor(fwd(a.data, b.data))

    def bw(g):
        return (_unbroadcast(dfa(g, a.data, b.data), a.shape),
                _unbroadcast(dfb(g, a.data, b.data), b.shape))

    return _rec(out, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(np.add, lambda g, x, y: g, lambda g, x, y: g, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(np.subtract, lambda g, x, y: g, lambda g, x, y: -g, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(np.divide,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y), a, b)


def _unary(name: str, a: Tensor) -> Tensor:
    fwd, bwd = _UNARY[name]
    y = fwd(a.data)
    out = Tensor(y)
    return _rec(out, (a,), lambda g: (bwd(a.data, out.data, g),))


def relu(a: Tensor) -> Tensor:
    return _unary("relu", a)


def silu(a: Tensor) -> Tensor:
    # dedicated op so the sigmoid is computed once and reused in backward
    s = _sigmoid(a.data)
    out = Tensor(a.data * s)

    def bw(g):
        return (g * (s * (1 + a.data * (1 - s))),)

    return _rec(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    return _unary("tanh", a)


def cos(a: Tensor) -> Tensor:
    return _unary("cos", a)


def sin(a: Tensor) -> Tensor:
    return _unary("sin", a)


def softplus(a: Tensor) -> Tensor:
    return _unary("softplus", a)


def exp(a: Tensor) -> Tensor:
    return _unary("exp", a)


def sigmoid(a: Tensor) -> Tensor:
    return _unary("sigmoid", a)


# ---------------------------------------------------------------------------
# linear algebra / reductions / structure

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    return _rec(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, stabilized by row-max subtraction."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects 2-D input, got {a.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def bw(g):
        dot = (g * out.data).sum(axis=1, keepdims=True)
        return ((g - dot) * out.data,)

    return _rec(out, (a,), bw)


def _softmax_last(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_channels(a: Tensor) -> Tensor:
    """Softmax over the last (channel) axis of an N-D tensor."""
    out = Tensor(_softmax_last(a.data))

    def bw(g):
        dot = (g * out.data).sum(axis=-1, keepdims=True)
        return ((g - dot) * out.data,)

    return _rec(out, (a,), bw)


def log_softmax_channels(a: Tensor) -> Tensor:
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(z - lse)

    def bw(g):
        sm = np.exp(out.data)
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _rec(out, (a,), bw)


def outer_batch(q: Tensor, k: Tensor) -> Tensor:
    """Per-sample outer product: (n, m) x (n, m) -> (n, m, m)."""
    if q.data.ndim != 2 or q.shape != k.shape:
        raise ShapeError(f"outer_batch expects matching (n, m) inputs, got {q.shape}, {k.shape}")
    out = Tensor(q.data[:, :, None] * k.data[:, None, :])

    def bw(g):
        dq = np.einsum("nij,nj->ni", g, k.data, optimize=True)
        dk = np.einsum("nij,ni->nj", g, q.data, optimize=True)
        return dq, dk

    return _rec(out, (q, k), bw)


def apply_attention(v: Tensor, b: Tensor) -> Tensor:
    """Weight per-sample value matrices by attention maps:
    out[n, c, i] = sum_j v[n, c, j] * b[n, i, j]."""
    if v.data.ndim != 3 or b.data.ndim != 3 or v.shape[0] != b.shape[0] \
            or v.shape[2] != b.shape[2] or b.shape[1] != b.shape[2]:
        raise ShapeError(f"apply_attention shapes {v.shape} x {b.shape} invalid")
    out = Tensor(np.einsum("ncj,nij->nci", v.data, b.data, optimize=True))

    def bw(g):
        dv = np.einsum("nci,nij->ncj", g, b.data, optimize=True)
        db = np.einsum("nci,ncj->nij", g, v.data, optimize=True)
        return dv, db

    return _rec(out, (v, b), bw)


def tsum(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(dtype=a.data.dtype)))
    return _rec(out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),))


def sum_axes(a: Tensor, axes: tuple[int, ...], keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims))

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)

    return _rec(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _rec(out, (a,), lambda g: (g.reshape(a.shape),))


def swap_last2(a: Tensor) -> Tensor:
    """Transpose the last two axes (any rank >= 2)."""
    if a.data.ndim < 2:
        raise ShapeError("swap_last2 needs rank >= 2")
    out = Tensor(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)))
    return _rec(out, (a,), lambda g: (np.ascontiguousarray(np.swapaxes(g, -1, -2)),))


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _rec(out, tuple(parts), bw)


def take_channels(a: Tensor, idx: Sequence[int]) -> Tensor:
    """Gather along the last axis; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[..., idx])

    def bw(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, (..., idx), g)
        return (acc,)

    return _rec(out, (a,), bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is zero where clamping engaged."""
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data > lo) & (a.data < hi)

    def bw(g):
        return (g * inside,)

    return _rec(out, (a,), bw)


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

    def f_pure(t: Tensor) -> float:
        # throwaway tape so probe evaluations never pollute an outer tape
        with Tape():
            return f(t).item()

    y1 = f(x)
    if y1.size != 1:
        raise ShapeError("gradcheck needs a scalar-valued function")
    if y1.item() != f_pure(x):
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
        f_plus = f_pure(Tensor(bumped.reshape(x.shape)))
        bumped[i] = flat[i] - eps
        lo = float(bumped[i])
        f_minus = f_pure(Tensor(bumped.reshape(x.shape)))
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
    f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def read_rdtf_record(f) -> Tensor:
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
    shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(rank))
    if any(s < 1 for s in shape):
        raise FormatError(f"non-positive extent in {shape}")
    # Python ints: a product of u32 extents cannot wrap, and a declared
    # payload longer than the stream fails before anything is allocated
    nbytes = 4 * math.prod(shape)
    left = _bytes_left(f)
    if nbytes > left:
        raise TruncationError(f"shape {shape} needs {nbytes} bytes, {left} left")
    raw = _read_exact(f, nbytes)
    arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
    return Tensor(arr.astype(default_dtype()))


def write_rdtf(path, t: Tensor) -> None:
    with open(path, "wb") as f:
        write_rdtf_record(f, t)


def read_rdtf(path) -> Tensor:
    with open(path, "rb") as f:
        t = read_rdtf_record(f)
        if f.read(1):
            raise FormatError("trailing bytes after tensor record")
    return t
