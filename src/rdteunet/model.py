"""Full network assembly, loss, optimizer, and checkpoint container.

Encoder: boundary-enhancing stem, then five stages (three residual, two
detail-transformer), each ending in a 2x2 stride-2 conv that halves the
spatial extent and doubles the channels. Decoder mirrors the encoder with
2x2 stride-2 transposed convs; every skip connection passes through Euler
fusion. Ablation variants swap the stem (plain conv), the attention flavor
(plain GSA projections), or the skip fusion (concat + 1x1).
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
    seed: int = 0

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
        self.store = ParamStore()
        self.step = 0
        rng = np.random.default_rng(config.seed)
        b = config.base_width
        widths = config.stage_widths  # stage block widths, shallow to deep

        if config.variant == "no_asbe":
            self.stem = nn.Conv2d(self.store, "stem.conv", rng, config.in_channels, b, 3,
                                  pad="same")
        else:
            self.stem = AsbeStem(self.store, "stem", rng, config.in_channels, c_stem=b,
                                 c_mid=max(2, b // 2))

        detail = config.variant != "no_hvda"
        self.enc_blocks = []
        self.down = []
        for i, wd in enumerate(widths, start=1):
            if i <= 3:
                blk = nn.ResBlock(self.store, f"enc{i}.block", rng, wd)
            else:
                blk = DetailsTransformerBlock(self.store, f"enc{i}.block", rng, wd,
                                              detail=detail)
            self.enc_blocks.append(blk)
            self.down.append(nn.Conv2d(self.store, f"enc{i}.down", rng, wd, 2 * wd, 2,
                                       stride=2, pad="valid"))

        self.up = []
        self.fuse = []
        self.dec_blocks = []
        for i in range(5, 0, -1):
            wd = widths[i - 1]
            self.up.append(nn.ConvTranspose2x2(self.store, f"dec{i}.up", rng, 2 * wd, wd))
            if config.variant == "no_eulerff":
                self.fuse.append(ConcatFusion(self.store, f"dec{i}.fuse", rng, wd))
            else:
                self.fuse.append(EulerFusion(self.store, f"dec{i}.fuse", rng, wd))
            if i >= 4:
                blk = DetailsTransformerBlock(self.store, f"dec{i}.block", rng, wd,
                                              detail=detail)
            else:
                blk = nn.ResBlock(self.store, f"dec{i}.block", rng, wd)
            self.dec_blocks.append(blk)

        # the trunk has no normalization of its own between stem and head, so
        # cross-entropy can reward coherent scale growth through every conv
        # until logits diverge; one LayerNorm in front of the head removes
        # that incentive without introducing a train/eval statistics gap
        self.final_norm = nn.LayerNorm(self.store, "final_norm", b)
        self.head = nn.Conv2d(self.store, "head", rng, b, config.num_classes, 1, pad="valid")

        # residual-terminal layers start at zero so every block opens as an
        # identity map; with Kaiming everywhere the ten-block residual chain
        # multiplies activation variance until the loss diverges at this depth
        for name in self.store.names():
            if name.endswith(".attn.proj_out.w") or name.endswith(".mlp.fc2.w") \
                    or name.endswith(".block.bn2.gamma"):
                self.store.set_value(name, T.zeros(self.store.value(name).shape))

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

def _label_array(labels, num_classes: int) -> np.ndarray:
    arr = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    ids = np.rint(arr).astype(np.int64)
    if not np.array_equal(ids, np.asarray(arr, dtype=np.float64)):
        raise ConfigError("labels must be integral class ids")
    if ids.min() < 0 or ids.max() >= num_classes:
        raise ConfigError(
            f"labels out of range: [{ids.min()}, {ids.max()}] vs {num_classes} classes")
    return ids


def _nll_mean(logp: Tensor, ids: np.ndarray) -> Tensor:
    k = logp.shape[-1]
    flat = logp.data.reshape(-1, k)
    rows = np.arange(flat.shape[0])
    idx = ids.reshape(-1)
    picked = flat[rows, idx]
    out = Tensor(np.asarray(-picked.mean(dtype=logp.data.dtype)))

    def bw(g):
        dl = np.zeros_like(flat)
        dl[rows, idx] = -float(g) / picked.size
        return (dl.reshape(logp.shape),)

    return T._rec(out, (logp,), bw)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean per-pixel cross entropy; softmax applied internally."""
    ids = _label_array(labels, logits.shape[-1])
    if ids.shape != logits.shape[:-1]:
        raise ShapeError(f"labels shape {ids.shape} vs logits {logits.shape}")
    return _nll_mean(T.log_softmax_channels(logits), ids)


DICE_EPS = 1e-5  # smoothing term of the soft Dice ratio


def soft_dice_loss(logits: Tensor, labels) -> Tensor:
    """1 - mean soft Dice over foreground classes (background excluded)."""
    k = logits.shape[-1]
    ids = _label_array(labels, k)
    probs = T.softmax_channels(logits)
    onehot = np.zeros(logits.shape, dtype=logits.data.dtype)
    np.put_along_axis(onehot, ids[..., None], 1.0, axis=-1)
    g = Tensor(onehot)
    axes = tuple(range(logits.data.ndim - 1))
    inter = T.sum_axes(T.mul(probs, g), axes)
    psum = T.sum_axes(probs, axes)
    gsum = Tensor(onehot.sum(axis=axes))
    dice = T.div(inter * 2.0 + DICE_EPS, T.add(psum, gsum) + DICE_EPS)
    fg = T.take_channels(dice, list(range(1, k)))
    mean_dice = T.tsum(fg) * (1.0 / (k - 1))
    return 1.0 - mean_dice


def segmentation_loss(logits: Tensor, labels) -> Tensor:
    """0.5 * cross-entropy + 0.5 * (1 - soft Dice); > 0 unless prediction exact."""
    return cross_entropy(logits, labels) * 0.5 + soft_dice_loss(logits, labels) * 0.5


# ---------------------------------------------------------------------------
# optimizer

# elements per block of the optimizer's sweeps over the arena: small enough
# that a block's operands stay in cache between its elementwise passes
ARENA_BLOCK = 1 << 15


def _blocks(n: int):
    return ((lo, min(lo + ARENA_BLOCK, n)) for lo in range(0, n, ARENA_BLOCK))


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    The squared norm is a sum of per-block dot products in the grad dtype,
    added up in a Python float. Raises ConfigError unless max_norm > 0 (a NaN
    included), and FloatingPointError, naming the first parameter whose
    gradient holds a NaN or inf; both before any gradient is scaled.
    """
    if not max_norm > 0:
        raise ConfigError(f"max_norm must be > 0, got {max_norm}")
    _, grads = store.arena()
    blocks = [grads[lo:hi] for lo, hi in _blocks(grads.size)]
    with np.errstate(over="ignore"):  # an overflowed block sum is handled below
        norm = math.sqrt(sum(float(np.dot(b, b)) for b in blocks))
    if not math.isfinite(norm):
        for name, p in store.items():
            if not np.isfinite(p.grad).all():
                raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
        # finite gradients whose squares overflow (float32 above ~1e19, float64
        # above ~1e154): sum the squares of grad / max|grad| in float64
        top = max(float(np.abs(b).max()) for b in blocks)
        units = (b.astype(np.float64) / top for b in blocks)
        norm = top * math.sqrt(sum(float(np.dot(u, u)) for u in units))
    if norm > max_norm and norm > 0:
        grads *= max_norm / norm
    return norm


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Keep the heap that one train step's tape frees for the next step.

    By default glibc returns freed heap memory to the system, and the next
    forward then faults every page of its activations back in (tens of
    thousands of minor faults per `no_hvda` step). A 1 GiB trim threshold
    keeps those pages; a fixed 32 MiB mmap threshold keeps glibc from moving
    its threshold, so allocations up to that size come from the kept heap.
    Does nothing where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam (Kingma & Ba, arXiv 1412.6980) over the store's parameter arena,
    at the paper's default betas and eps.

    A step sweeps the flat value, grad and moment arrays in blocks of
    ARENA_BLOCK elements, with the elementwise operations of a per-tensor
    update in the same order, so it gives bit-equal values. The step reads
    `self.store`'s arena each time: after a checkpoint round trip, pointing
    `store` at the loaded model's store carries the moments over.
    """

    def __init__(self, store: ParamStore, lr: float = 1e-3):
        _retain_freed_heap()
        self.store = store
        self.lr = lr
        self.t = 0
        values, _ = store.arena()
        self._m = np.zeros_like(values)
        self._v = np.zeros_like(values)
        self._tmp = np.empty(min(ARENA_BLOCK, values.size), values.dtype)

    def step(self) -> None:
        values, grads = self.store.arena()
        if values.size != self._m.size:
            raise ConfigError(f"store holds {values.size} parameter scalars, "
                              f"the optimizer's moments {self._m.size}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc2 = 1.0 - b2 ** self.t
        scale = self.lr / (1.0 - b1 ** self.t)
        for lo, hi in _blocks(values.size):
            g, m, v = grads[lo:hi], self._m[lo:hi], self._v[lo:hi]
            d = self._tmp[:hi - lo]
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

    Every entry header is checked while scanning the file once; the config
    and the entry names and shapes are checked next, and only then are the
    payloads read, the parameters straight into a fresh value arena that the
    model's store adopts.
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
        param_names = set(store.names())
        buffer_names = set(store.buffer_names())
        for name, (shape, _) in entries.items():
            if name not in param_names and name not in buffer_names:
                raise FormatError(f"checkpoint entry {name!r} not a model parameter")
            want = (store.value(name) if name in param_names else store.buffer(name)).shape
            if shape != want:
                raise FormatError(f"checkpoint entry {name!r}: expected shape {want}, got {shape}")
        missing = (param_names | buffer_names) - set(entries)
        if missing:
            raise FormatError(f"checkpoint missing parameters: {sorted(missing)[:5]}")

        values = np.empty(store.n_scalars(), dtype="<f4")
        lo = 0
        for name in store.names():
            hi = lo + store.value(name).size
            f.seek(entries[name][1])
            read_into(f, values[lo:hi])
            lo = hi
        for name in store.buffer_names():
            shape, offset = entries[name]
            payload = np.empty(shape, dtype="<f4")
            f.seek(offset)
            read_into(f, payload)
            store.buffer(name)[...] = payload
    store.adopt(values.astype(store.dtype, copy=False))
    model.step = step
    return model
