"""Deterministic synthetic segmentation data: rotated ellipses, rectangles,
and annuli over a noisy background, with exact analytic masks.

Samples serialize as an RDTF image tensor plus a binary PGM (P5) mask whose
pixel values are raw class ids; both formats round-trip bit-exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import (ConfigError, FormatError, Tensor, TruncationError, _json_object, read_rdtf,
                     write_rdtf)

SHAPE_ELLIPSE = 1
SHAPE_RECTANGLE = 2
SHAPE_ANNULUS = 3
NOISE_SIGMA = 0.05  # standard deviation of the Gaussian noise added to every image


@dataclass
class GenSpec:
    count: int
    size: int = 64
    num_classes: int = 4
    seed: int = 0

    def validate(self) -> None:
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.size % 32 or self.size < 32:
            raise ConfigError(f"size {self.size} must be divisible by 32")
        if not 2 <= self.num_classes <= 4:
            raise ConfigError(
                f"num_classes must be in [2, 4] (background + up to 3 shapes), "
                f"got {self.num_classes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SegSample:
    image: Tensor  # (H, W, 1), values in [0, 1]
    mask: Tensor   # (H, W), integral class ids


def _class_intensity(cls: int, num_classes: int) -> float:
    if cls == 0:
        return 0.15
    return 0.2 + 0.75 * cls / (num_classes - 1)


def _paint_shape(mask: np.ndarray, cls: int, cy: float, cx: float, scale: float,
                 rotation: float, aspect: float) -> None:
    h, w = mask.shape
    yy, xx = np.mgrid[0:h, 0:w]
    dy = yy - cy
    dx = xx - cx
    c, s = np.cos(rotation), np.sin(rotation)
    ry = c * dy + s * dx
    rx = -s * dy + c * dx
    a = scale / 2.0
    b = a * aspect
    if cls == SHAPE_ELLIPSE:
        inside = (rx / a) ** 2 + (ry / b) ** 2 <= 1.0
    elif cls == SHAPE_RECTANGLE:
        inside = (np.abs(rx) <= a) & (np.abs(ry) <= b)
    elif cls == SHAPE_ANNULUS:
        r = np.sqrt(rx * rx + ry * ry)
        inside = (r <= a) & (r >= 0.5 * a)
    else:
        raise ConfigError(f"no shape for class {cls}")
    mask[inside] = cls


def generate(spec: GenSpec) -> list[SegSample]:
    """Fully seed-determined dataset; identical spec -> identical bits."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    samples = []
    for _ in range(spec.count):
        mask = np.zeros((spec.size, spec.size), dtype=np.int64)
        n_shapes = int(rng.integers(1, 4))
        for _ in range(n_shapes):
            cls = int(rng.integers(1, spec.num_classes))
            cy, cx = rng.uniform(0.2 * spec.size, 0.8 * spec.size, size=2)
            scale = float(rng.uniform(8.0, 24.0))
            rotation = float(rng.uniform(0.0, np.pi))
            aspect = float(rng.uniform(0.6, 1.0))
            _paint_shape(mask, cls, cy, cx, scale, rotation, aspect)
        levels = np.asarray(
            [_class_intensity(c, spec.num_classes) for c in range(spec.num_classes)],
            dtype=np.float32)
        img = levels[mask]
        img = img + NOISE_SIGMA * rng.standard_normal(mask.shape).astype(np.float32)
        img = np.clip(img, 0.0, 1.0).astype(np.float32)
        samples.append(SegSample(image=Tensor(img[..., None]),
                                 mask=Tensor(mask.astype(np.float32))))
    return samples


def mask_ids(sample: SegSample) -> np.ndarray:
    return np.rint(sample.mask.data).astype(np.int64)


def foreground_fraction(samples: list[SegSample]) -> float:
    total = sum((mask_ids(s) > 0).mean() for s in samples)
    return float(total / len(samples))


# ---------------------------------------------------------------------------
# on-disk format

def _img_path(d, index: int) -> Path:
    return Path(d) / f"img_{index:05d}.rdtf"


def _msk_path(d, index: int) -> Path:
    return Path(d) / f"msk_{index:05d}.pgm"


def write_pgm(path, ids: np.ndarray) -> None:
    if ids.ndim != 2:
        raise ConfigError(f"PGM mask must be 2-D, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() > 255:
        raise ConfigError("class ids must fit in one byte")
    h, w = ids.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(ids.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d{1,9})\s+(\d{1,9})\s+(\d{1,9})\s", raw)
    if not m:
        raise FormatError(f"malformed PGM header in {path}")
    w, h, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if w < 1 or h < 1:
        raise FormatError(f"PGM extents must be >= 1, got {w}x{h}")
    if maxval != 255:
        raise FormatError(f"PGM maxval must be 255, got {maxval}")
    data = raw[m.end():]
    if len(data) < w * h:
        raise TruncationError(f"PGM payload short: {len(data)} < {w * h}")
    if len(data) > w * h:
        raise FormatError("trailing bytes after PGM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).astype(np.int64)


def write_sample(sample: SegSample, d, index: int) -> None:
    write_rdtf(_img_path(d, index), sample.image)
    write_pgm(_msk_path(d, index), mask_ids(sample))


def read_sample(d, index: int, num_classes: int | None = None) -> SegSample:
    """Sample `index` of directory `d`: an (H, W, 1) image and its (H, W) mask."""
    img = read_rdtf(_img_path(d, index))
    ids = read_pgm(_msk_path(d, index))
    if len(img.shape) != 3 or img.shape[2] != 1:
        raise FormatError(f"image of sample {index} has shape {img.shape}, not (H, W, 1)")
    if img.shape[:2] != ids.shape:
        raise FormatError(
            f"image {img.shape} and mask {ids.shape} disagree for sample {index}")
    if num_classes is not None and ids.max() >= num_classes:
        raise FormatError(
            f"mask class {ids.max()} out of range for {num_classes} classes")
    return SegSample(image=img, mask=Tensor(ids.astype(np.float32)))


def write_manifest(d, spec: GenSpec) -> None:
    doc = {"count": spec.count, "size": spec.size, "classes": spec.num_classes,
           "seed": spec.seed, "format": "rdtf+pgm"}
    (Path(d) / "manifest.json").write_text(json.dumps(doc, sort_keys=True))


def read_manifest(d) -> dict:
    p = Path(d) / "manifest.json"
    if not p.exists():
        raise FormatError(f"no manifest.json in {d}")
    doc = _json_object(p.read_bytes(), f"manifest in {d}")
    required = {"count", "size", "classes", "seed", "format"}
    missing = required - set(doc)
    if missing:
        raise FormatError(f"manifest missing keys: {sorted(missing)}")
    if doc["format"] != "rdtf+pgm":
        raise FormatError(f"unsupported dataset format {doc['format']!r}")
    for key in ("count", "size", "classes", "seed"):
        if type(doc[key]) is not int:
            raise FormatError(f"manifest {key!r} must be an int, got {doc[key]!r}")
    try:
        GenSpec(count=doc["count"], size=doc["size"], num_classes=doc["classes"],
                seed=doc["seed"]).validate()
    except ConfigError as e:
        raise FormatError(f"manifest in {d}: {e}") from e
    return doc


def write_dataset(samples: list[SegSample], d, spec: GenSpec) -> None:
    Path(d).mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(samples):
        write_sample(s, d, i)
    write_manifest(d, spec)


def read_dataset(d) -> tuple[list[SegSample], dict]:
    manifest = read_manifest(d)
    for i in range(manifest["count"]):
        if not (_img_path(d, i).is_file() and _msk_path(d, i).is_file()):
            raise FormatError(f"manifest lists {manifest['count']} samples but sample {i} "
                              f"is missing from {d}")
    size = manifest["size"]
    samples = [read_sample(d, i, manifest["classes"]) for i in range(manifest["count"])]
    for i, s in enumerate(samples):
        if s.mask.shape != (size, size):
            raise FormatError(f"sample {i} is {s.mask.shape[0]}x{s.mask.shape[1]} but the "
                              f"manifest in {d} says size {size}")
    return samples, manifest
