"""Full network assembly, loss, optimizer, train step, and checkpoint container.

Encoder: boundary-enhancing stem, then five stages (three residual, two
detail-transformer), each ending in a 2x2 stride-2 conv that halves the
spatial extent and doubles the channels. Decoder mirrors the encoder with
2x2 stride-2 transposed convs; every skip connection passes through Euler
fusion. Ablation variants swap the stem (plain conv), the attention flavor
(plain GSA projections), or the skip fusion (concat + 1x1).

`train_step` is the one train step: a training-mode forward, the loss, the
backward into the grad arena, the global clip and the optimizer step.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from . import tensor as T
from .asbe import AsbeStem
from .eulerff import ConcatFusion, EulerFusion
from .hvda import DetailsTransformerBlock
from .tensor import (
    ConfigError,
    FormatError,
    ParamStore,
    ShapeError,
    Tensor,
    _json_object,
    _read_exact,
    read_into,
    read_rdtf_header,
    write_rdtf_record,
)

VARIANTS = ("full", "no_asbe", "no_hvda", "no_eulerff")


@dataclass
class ModelConfig:
    h: int = 64
    w: int = 64
    in_channels: int = 1
    num_classes: int = 4
    base_width: int = 16
    variant: str = "full"
    seed: int = 0  # of the parameter store's generator, which draws every random initial value

    def validate(self) -> None:
        if self.h % 32 or self.w % 32 or self.h < 32 or self.w < 32:
            raise ConfigError(
                f"input size {self.h}x{self.w} must be divisible by 32 (five halvings)")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.base_width < 1:
            raise ConfigError(f"base_width must be >= 1, got {self.base_width}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant {self.variant!r} not one of {VARIANTS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def stage_widths(self) -> list[int]:
        return [self.base_width * (1 << i) for i in range(5)]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        missing = known - set(d)
        if missing:
            raise ConfigError(f"missing model config keys: {sorted(missing)}")
        for f in fields(cls):
            # every default is an int except variant's str; bools are not ints here
            if type(d[f.name]) is not type(f.default):
                raise ConfigError(f"model config {f.name!r} must be "
                                  f"{type(f.default).__name__}, got {d[f.name]!r}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


class RdteUnet:
    """Five-stage encoder-decoder with boundary stem and Euler skip fusion."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.store = ParamStore(config.seed)
        self.step = 0
        b = config.base_width
        widths = config.stage_widths  # stage block widths, shallow to deep

        if config.variant == "no_asbe":
            self.stem = nn.Conv2d(self.store, "stem.conv", config.in_channels, b, 3, pad="same")
        else:
            self.stem = AsbeStem(self.store, "stem", config.in_channels, c_stem=b,
                                 c_mid=max(2, b // 2))

        detail = config.variant != "no_hvda"
        self.enc_blocks = []
        self.down = []
        for i, wd in enumerate(widths, start=1):
            if i <= 3:
                blk = nn.ResBlock(self.store, f"enc{i}.block", wd)
            else:
                blk = DetailsTransformerBlock(self.store, f"enc{i}.block", wd,
                                              self._extent(i), detail=detail)
            self.enc_blocks.append(blk)
            self.down.append(nn.Conv2d(self.store, f"enc{i}.down", wd, 2 * wd, 2,
                                       stride=2, pad="valid"))

        self.up = []
        self.fuse = []
        self.dec_blocks = []
        for i in range(5, 0, -1):
            wd = widths[i - 1]
            self.up.append(nn.ConvTranspose2x2(self.store, f"dec{i}.up", 2 * wd, wd))
            if config.variant == "no_eulerff":
                self.fuse.append(ConcatFusion(self.store, f"dec{i}.fuse", wd))
            else:
                self.fuse.append(EulerFusion(self.store, f"dec{i}.fuse", wd))
            if i >= 4:
                blk = DetailsTransformerBlock(self.store, f"dec{i}.block", wd,
                                              self._extent(i), detail=detail)
            else:
                blk = nn.ResBlock(self.store, f"dec{i}.block", wd)
            self.dec_blocks.append(blk)

        # the trunk has no normalization of its own between stem and head, so
        # cross-entropy can reward coherent scale growth through every conv
        # until logits diverge; one LayerNorm in front of the head removes
        # that incentive without introducing a train/eval statistics gap
        self.final_norm = nn.LayerNorm(self.store, "final_norm", b)
        self.head = nn.Conv2d(self.store, "head", b, config.num_classes, 1, pad="valid")

        # residual-terminal layers start at zero so every block opens as an
        # identity map; with Kaiming everywhere the ten-block residual chain
        # multiplies activation variance until the loss diverges at this depth;
        # the store still draws the values these replace, so later layers' are unmoved
        for name in self.store.names():
            if name.endswith(".attn.proj_out.w") or name.endswith(".mlp.fc2.w") \
                    or name.endswith(".block.bn2.gamma"):
                self.store.set_value(name, T.Fill(self.store.shape(name), 0.0))

    def _extent(self, stage: int) -> tuple[int, int]:
        """(h, w) of the feature maps of encoder/decoder stage 1..5."""
        return self.config.h >> (stage - 1), self.config.w >> (stage - 1)

    # ------------------------------------------------------------------

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        cfg = self.config
        expected = (cfg.h, cfg.w, cfg.in_channels)
        if x.data.ndim != 4 or x.shape[1:] != expected:
            raise ShapeError(
                f"forward expects (N, {expected[0]}, {expected[1]}, {expected[2]}), "
                f"got {x.shape}")
        cur = self.stem(x)
        skips = []
        for i in range(5):
            blk = self.enc_blocks[i]
            cur = blk(cur, training)
            skips.append(cur)
            cur = self.down[i](cur)
        for j, i in enumerate(range(5, 0, -1)):
            cur = self.up[j](cur)
            cur = self.fuse[j](skips[i - 1], cur)
            cur = self.dec_blocks[j](cur, training)
        return self.head(self.final_norm(cur))

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        return self.forward(x, training)

    def n_parameters(self) -> int:
        return self.store.n_scalars()


# ---------------------------------------------------------------------------
# loss

DICE_EPS = 1e-5  # smoothing term of the soft Dice ratio


def _label_ids(labels, logits_shape: tuple[int, ...]) -> np.ndarray:
    """The labels as int64 class ids, flat, one per logits position."""
    k = logits_shape[-1] if logits_shape else 0
    if k < 2:
        raise ShapeError(f"the loss needs logits of >= 2 classes, got shape {logits_shape}")
    if math.prod(logits_shape) == 0:
        raise ShapeError(f"the loss of an empty batch is undefined: logits {logits_shape}")
    arr = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    if arr.shape != logits_shape[:-1]:
        raise ShapeError(f"labels shape {arr.shape} vs logits {logits_shape}")
    # checked as floats before the cast, so NaN and +-inf never reach it
    vals = np.asarray(arr, dtype=np.float64)
    if not np.array_equal(np.rint(vals), vals):
        raise ConfigError("labels must be integral class ids")
    if vals.min() < 0 or vals.max() >= k:
        raise ConfigError(f"labels out of range: [{vals.min():g}, {vals.max():g}] vs {k} classes")
    return vals.astype(np.int64).reshape(-1)


def segmentation_loss(logits: Tensor, labels) -> Tensor:
    """0.5 * cross-entropy + 0.5 * (1 - mean foreground soft Dice), as one op.

    Over the M = N*H*W positions of the channels-last logits z, with one
    max-shifted softmax p and the one-hot labels y:

        CE   = -(1/M) sum log p[y]
        Dice = 1/(K-1) sum_{k>=1} num_k / den_k,
        num_k = 2 I_k + DICE_EPS,  den_k = P_k + G_k + DICE_EPS,

    with I_k = sum p_k y_k, P_k = sum p_k and G_k = sum y_k per class (the
    soft Dice of V-Net, Milletari et al., arXiv 1606.04797); background
    (class 0) is excluded from the Dice mean. > 0 unless prediction exact.

    The backward is closed form. With dp_k = a_k y_k + b_k, where
    a_k = -1/((K-1) den_k) and b_k = 0.5 num_k / ((K-1) den_k^2) for k >= 1
    and a_0 = b_0 = 0 (the Dice part's d loss / d p),

        dz = g * [0.5 (p - y) / M + p * (dp - sum_j p_j dp_j)].

    Raises ShapeError for logits of fewer than 2 classes, an empty batch or
    labels of another shape than logits.shape[:-1], and ConfigError for
    labels that are not integral class ids in [0, K).
    """
    shape = logits.shape
    ids = _label_ids(labels, shape)
    k = shape[-1]
    z = logits.data.reshape(-1, k)
    dt = z.dtype
    m = z.shape[0]
    half, scale = dt.type(0.5), dt.type(1.0 / (k - 1))
    rows = np.arange(m)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = T.gemv_sum(e, (-1,))
    p = e / s
    ce = -(z[rows, ids] - np.log(s[:, 0])).mean(dtype=dt)
    y = np.zeros_like(p)
    y[rows, ids] = 1
    inter = T.gemv_sum(p * y, (0,))
    num = inter * dt.type(2.0) + dt.type(DICE_EPS)
    den = T.gemv_sum(p, (0,)) + T.gemv_sum(y, (0,)) + dt.type(DICE_EPS)
    dice = (num / den)[1:].sum(dtype=dt) * scale
    out = Tensor(np.asarray(ce * half + (dt.type(1.0) - dice) * half))

    def bw(g):
        a = -scale / den
        b = half * scale * num / (den * den)
        a[0] = b[0] = 0
        dp = y * a + b
        dp -= T.gemv_sum(p * dp, (-1,))
        dp *= p
        dz = p - y
        dz *= dt.type(0.5 / m)
        dz += dp
        dz *= g
        return (dz.reshape(shape),)

    return T._rec(out, (logits,), bw)


# ---------------------------------------------------------------------------
# optimizer

# elements per block of the squared norm: one np.dot each, added up in block
# order, so the norm is the same for every sweep unit
ARENA_BLOCK = 1 << 15
# elements per unit that a lane of an arena sweep pulls: a whole number of
# ARENA_BLOCKs, long enough that each NumPy call of a unit outlasts the other
# lane's wake-up (`tensor.sweep_arena`)
SWEEP_BLOCK = 1 << 17


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    The squared norm is a sum of per-block dot products in the grad dtype,
    one per ARENA_BLOCK elements, added up in block order in a Python float.
    The caller and the worker thread share the SWEEP_BLOCK units of the norm
    pass and of the scale pass (`tensor.sweep_arena`); each unit holds whole
    blocks, so the result is the one loop's, bit for bit.
    Raises ConfigError unless max_norm > 0 (a NaN included), and
    FloatingPointError, naming the first parameter whose gradient holds a
    NaN or inf; both before any gradient is scaled. max_norm=inf computes
    the norm and scales nothing.
    """
    if not max_norm > 0:
        raise ConfigError(f"max_norm must be > 0, got {max_norm}")
    _, grads = store.arena()
    squares = np.empty(-(-grads.size // ARENA_BLOCK))

    def square(lo, hi, lane):
        for b in range(lo, hi, ARENA_BLOCK):
            g = grads[b:min(b + ARENA_BLOCK, hi)]
            squares[b // ARENA_BLOCK] = np.dot(g, g)

    with np.errstate(over="ignore"):  # an overflowed block sum is handled below
        T.sweep_arena(grads.size, SWEEP_BLOCK, square)
    norm = math.sqrt(sum(squares.tolist()))
    if not math.isfinite(norm):
        for name, p in store.items():
            if not np.isfinite(p.grad).all():
                raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
        # finite gradients whose squares overflow (float32 above ~1e19, float64
        # above ~1e154): sum the squares of grad / max|grad| in float64
        blocks = [grads[lo:lo + ARENA_BLOCK] for lo in range(0, grads.size, ARENA_BLOCK)]
        top = max(float(np.abs(b).max()) for b in blocks)
        units = (b.astype(np.float64) / top for b in blocks)
        norm = top * math.sqrt(sum(float(np.dot(u, u)) for u in units))
    if norm > max_norm and norm > 0:
        factor = max_norm / norm

        def scale(lo, hi, lane):
            grads[lo:hi] *= factor

        T.sweep_arena(grads.size, SWEEP_BLOCK, scale)
    return norm


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4
_M_ARENA_MAX = -8


def _retain_freed_heap() -> None:
    """Serve every allocation of a training process from one heap, and keep
    what it frees for the next allocation.

    By default glibc returns freed heap memory to the system, and the next
    forward then faults every page of its activations back in (tens of
    thousands of minor faults per `no_hvda` step). A 1 GiB trim threshold
    keeps those pages. By default glibc also serves each large array (the
    parameter arenas of `full`, 235 MiB each) with its own `mmap` and unmaps
    it when it is freed, so a checkpoint round trip faults the loaded
    model's value and grad arenas in page by page. A zero `M_MMAP_MAX`
    serves every allocation from the heap instead (the mmap threshold then
    plays no part), so the arenas a released model frees are the resident
    pages the next model's arenas reuse. Freed memory stays resident up to
    the trim threshold: a free region at the top of the heap beyond 1 GiB
    goes back to the system. One malloc arena makes the worker thread's
    temporaries come from that same kept heap rather than from a second
    arena of their own. Does nothing where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_ARENA_MAX, 1)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam (Kingma & Ba, arXiv 1412.6980) over the store's parameter arena,
    at the paper's default betas and eps.

    A step sweeps the flat value, grad and moment arrays in units of
    SWEEP_BLOCK elements, with the elementwise operations of a per-tensor
    update in the same order, so it gives bit-equal values; being
    elementwise, it does not depend on ARENA_BLOCK, the norm's block. The
    caller and the worker thread share the units (`tensor.sweep_arena`),
    each with a scratch unit of its own, so which thread updates a unit
    changes no value. The step reads `self.store`'s arena each time: after a
    checkpoint round trip, pointing `store` at the loaded model's store
    carries the moments over. Raises ConfigError unless lr is finite and
    > 0, and at a step whose store differs from the moments in size or dtype.
    """

    def __init__(self, store: ParamStore, lr: float = 1e-3):
        if not (math.isfinite(lr) and lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {lr}")
        _retain_freed_heap()
        self.store = store
        self.lr = lr
        self.t = 0
        values, _ = store.arena()
        self._m = np.zeros_like(values)
        self._v = np.zeros_like(values)
        # one scratch unit per lane of the sweep: the caller's and the worker's
        self._tmp = np.empty((2, min(SWEEP_BLOCK, values.size)), values.dtype)

    def step(self) -> None:
        values, grads = self.store.arena()
        if values.size != self._m.size:
            raise ConfigError(f"store holds {values.size} parameter scalars, "
                              f"the optimizer's moments {self._m.size}")
        if values.dtype != self._m.dtype:
            raise ConfigError(f"store holds {values.dtype} parameters, "
                              f"the optimizer's moments {self._m.dtype}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc2 = 1.0 - b2 ** self.t
        scale = self.lr / (1.0 - b1 ** self.t)

        def update(lo, hi, lane):
            g, m, v = grads[lo:hi], self._m[lo:hi], self._v[lo:hi]
            d = self._tmp[lane, :hi - lo]
            m *= b1
            np.multiply(g, 1 - b1, out=d)
            m += d
            v *= b2
            np.multiply(g, g, out=d)
            d *= 1 - b2
            v += d
            np.divide(v, bc2, out=d)
            np.sqrt(d, out=d)
            d += ADAM_EPS
            np.divide(m, d, out=d)
            d *= scale
            values[lo:hi] -= d

        T.sweep_arena(values.size, SWEEP_BLOCK, update)


def train_step(model: RdteUnet, opt: Adam, images: Tensor, labels,
               max_norm: float) -> tuple[float, float]:
    """One train step: a training-mode forward of `images` on a fresh tape,
    `segmentation_loss` against `labels`, `tensor.backward` into the grad
    arena, `clip_grad_norm(model.store, max_norm)`, then `opt.step()`; only
    then is `model.step` advanced by one.

    `opt` is anything whose `step()` updates `model.store` from its grads.
    Returns `(loss, grad_norm)` as floats, the norm taken before the clip.
    The errors are those of the five calls; a clip that raises leaves the
    values, the optimizer and `model.step` as they were.
    """
    with T.Tape() as tape:
        loss = segmentation_loss(model(images, training=True), labels)
    T.backward(tape, loss, model.store)
    grad_norm = clip_grad_norm(model.store, max_norm)
    opt.step()
    model.step += 1
    return loss.item(), grad_norm


# ---------------------------------------------------------------------------
# checkpoint container

CKPT_MAGIC = b"RDTC"


def write_checkpoint_raw(path, entries: dict[str, Tensor], config_json: dict) -> None:
    """Low-level writer: magic, version, u32 entry count, (u16 name len +
    name + RDTF record) per entry, then u32-length-prefixed config JSON."""
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<B", 1))
        f.write(struct.pack("<I", len(entries)))
        for name, t in entries.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            write_rdtf_record(f, t)
        blob = json.dumps(config_json, sort_keys=True).encode("utf-8")
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)


def save_checkpoint(model: RdteUnet, path) -> None:
    entries: dict[str, Tensor] = {n: p.value for n, p in model.store.items()}
    for bn in model.store.buffer_names():
        entries[bn] = Tensor(model.store.buffer(bn).copy())
    write_checkpoint_raw(path, entries, {**model.config.to_dict(), "step": model.step})


def load_checkpoint(path) -> RdteUnet:
    """Read a checkpoint written by `save_checkpoint`.

    Every entry header is checked while scanning the file once, against the
    bytes left in it. The config is checked next, and the model built from it
    only declares its parameters and buffers, so it holds shapes and
    allocates nothing that scales with the config. Every entry's name and
    shape is checked against those; only then are the payloads read: the
    parameters straight into one fresh value arena that the model's store
    adopts, so no initial value is computed, and the batch-norm running
    statistics straight into the store's buffers.
    """
    with open(path, "rb") as f:
        magic = _read_exact(f, 4)
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<B", _read_exact(f, 1))
        if version != 1:
            raise FormatError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        entries: dict[str, tuple[tuple[int, ...], int]] = {}  # name -> (shape, payload offset)
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2))
            raw = _read_exact(f, nlen)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"checkpoint entry name {raw!r} is not UTF-8") from e
            if name in entries:
                raise FormatError(f"duplicate checkpoint entry {name!r}")
            shape = read_rdtf_header(f)
            entries[name] = (shape, f.tell())
            f.seek(4 * math.prod(shape), io.SEEK_CUR)
        (jlen,) = struct.unpack("<I", _read_exact(f, 4))
        blob = _json_object(_read_exact(f, jlen), "checkpoint config")
        if f.read(1):
            raise FormatError("trailing bytes after checkpoint")

        step = blob.pop("step", 0)
        if type(step) is not int or step < 0:
            raise FormatError(f"checkpoint step must be a non-negative int, got {step!r}")
        try:
            config = ModelConfig.from_dict(blob)
        except ConfigError as e:
            raise FormatError(f"checkpoint config: {e}") from e
        model = RdteUnet(config)
        store = model.store
        params, buffers = store.names(), store.buffer_names()
        known = set(params) | set(buffers)
        for name, (shape, _) in entries.items():
            if name not in known:
                raise FormatError(f"checkpoint entry {name!r} not a model parameter")
            if shape != store.shape(name):
                raise FormatError(f"checkpoint entry {name!r}: expected shape "
                                  f"{store.shape(name)}, got {shape}")
        missing = known - set(entries)
        if missing:
            raise FormatError(f"checkpoint missing parameters: {sorted(missing)[:5]}")

        values = np.empty(store.n_scalars(), dtype=store.dtype)
        lo = 0
        for name in params:
            shape, offset = entries[name]
            hi = lo + math.prod(shape)
            f.seek(offset)
            read_into(f, values[lo:hi])
            lo = hi
        for name in buffers:
            f.seek(entries[name][1])
            read_into(f, store.buffer(name))
    store.adopt(values)
    model.step = step
    return model
