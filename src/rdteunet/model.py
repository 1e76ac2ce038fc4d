"""Full network assembly, loss, optimizer, and checkpoint container.

Encoder: boundary-enhancing stem, then five stages (three residual, two
detail-transformer), each ending in a 2x2 stride-2 conv that halves the
spatial extent and doubles the channels. Decoder mirrors the encoder with
2x2 stride-2 transposed convs; every skip connection passes through Euler
fusion. Ablation variants swap the stem (plain conv), the attention flavor
(plain GSA projections), or the skip fusion (concat + 1x1).
"""

from __future__ import annotations

import json
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
    read_rdtf_record,
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

    def forward(self, x: Tensor, training: bool = False,
                taps: dict | None = None) -> Tensor:
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
            if taps is not None:
                taps[f"skip{i + 1}"] = cur.shape
            cur = self.down[i](cur)
            if taps is not None:
                taps[f"enc{i + 1}"] = cur.shape
        for j, i in enumerate(range(5, 0, -1)):
            cur = self.up[j](cur)
            cur = self.fuse[j](skips[i - 1], cur)
            cur = self.dec_blocks[j](cur, training)
            if taps is not None:
                taps[f"dec{i}"] = cur.shape
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


def soft_dice_loss(logits: Tensor, labels, eps: float = 1e-5) -> Tensor:
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
    dice = T.div(inter * 2.0 + eps, T.add(psum, gsum) + eps)
    fg = T.take_channels(dice, list(range(1, k)))
    mean_dice = T.tsum(fg) * (1.0 / (k - 1))
    return 1.0 - mean_dice


def segmentation_loss(logits: Tensor, labels) -> Tensor:
    """0.5 * cross-entropy + 0.5 * (1 - soft Dice); > 0 unless prediction exact."""
    return cross_entropy(logits, labels) * 0.5 + soft_dice_loss(logits, labels) * 0.5


# ---------------------------------------------------------------------------
# optimizer

def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Raises FloatingPointError, naming the first parameter whose gradient holds
    a NaN or inf, before any gradient is scaled.
    """
    total = 0.0
    for name, p in store.items():
        sq = float((p.grad.astype(np.float64) ** 2).sum())
        # sq also overflows for finite float64 grads above ~1e154
        if not np.isfinite(sq) and not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
        total += sq
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for _, p in store.items():
            p.grad *= scale
    return norm


class Adam:
    def __init__(self, store: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {n: np.zeros_like(p.value.data) for n, p in store.items()}
        self._v = {n: np.zeros_like(p.value.data) for n, p in store.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        scale = self.lr / bc1
        for name, p in self.store.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            denom = np.sqrt(v / bc2)  # one temp, reused in place below
            denom += self.eps
            np.divide(m, denom, out=denom)
            denom *= scale
            p.value = Tensor(p.value.data - denom)


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
    with open(path, "rb") as f:
        magic = _read_exact(f, 4)
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<B", _read_exact(f, 1))
        if version != 1:
            raise FormatError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        entries: dict[str, Tensor] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2))
            raw = _read_exact(f, nlen)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"checkpoint entry name {raw!r} is not UTF-8") from e
            if name in entries:
                raise FormatError(f"duplicate checkpoint entry {name!r}")
            entries[name] = read_rdtf_record(f)
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
    for name, t in entries.items():
        if name not in param_names and name not in buffer_names:
            raise FormatError(f"checkpoint entry {name!r} not a model parameter")
        want = (store.value(name) if name in param_names else store.buffer(name)).shape
        if t.shape != want:
            raise FormatError(f"checkpoint entry {name!r}: expected shape {want}, got {t.shape}")
        if name in param_names:
            store.set_value(name, t)
        else:
            store.buffer(name)[...] = t.data
    missing = (param_names | buffer_names) - set(entries)
    if missing:
        raise FormatError(f"checkpoint missing parameters: {sorted(missing)[:5]}")
    model.step = step
    return model
