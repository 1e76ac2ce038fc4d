"""Overlap (DSC) and boundary-distance (HD95) metrics with brute-force
oracles, plus dataset-level evaluation reporting.

HD95 here: boundary pixels are mask pixels with at least one 4-neighbor
outside the mask (the image border counts as outside); directed
boundary-to-boundary Euclidean distances are pooled from both directions and
the 95th percentile is the 1-based nearest-rank ceil(0.95*n) order statistic.
Distances are in pixels. If exactly one mask is empty the sentinel value is
the image diagonal, flagged in the report; two empty masks give 0.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ConfigError, ShapeError, Tensor


def _as_bool(mask) -> np.ndarray:
    arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    return arr.astype(bool)


def dsc(pred, gt) -> float:
    """2|P&G| / (|P|+|G|); two empty masks count as a perfect 1.0."""
    p = _as_bool(pred)
    g = _as_bool(gt)
    if p.shape != g.shape:
        raise ShapeError(f"mask shapes differ: {p.shape} vs {g.shape}")
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


def boundary_pixels(mask) -> np.ndarray:
    """(n, 2) row/col coordinates of pixels with a 4-neighbor outside the mask."""
    m = _as_bool(mask)
    if m.ndim != 2:
        raise ShapeError(f"mask must be 2-D, got shape {m.shape}")
    # a mask pixel on the image border is boundary; only the inner block
    # needs the 4-neighbour test
    edge = m.copy()
    edge[1:-1, 1:-1] &= ~(m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:])
    return np.argwhere(edge)


def _percentile_nearest_rank(sorted_vals: np.ndarray, q: float) -> float:
    n = len(sorted_vals)
    rank = math.ceil(q * n)  # 1-based nearest-rank
    return float(sorted_vals[max(rank, 1) - 1])


def hd95_flagged(pred, gt) -> tuple[float, bool]:
    """HD95 plus a flag marking the empty-mask sentinel (image diagonal)."""
    p = _as_bool(pred)
    g = _as_bool(gt)
    if p.shape != g.shape:
        raise ShapeError(f"mask shapes differ: {p.shape} vs {g.shape}")
    if p.ndim != 2:
        raise ShapeError(f"mask must be 2-D, got shape {p.shape}")
    p_any, g_any = bool(p.any()), bool(g.any())
    if not p_any and not g_any:
        return 0.0, False
    if p_any != g_any:
        h, w = p.shape
        return float(np.sqrt(h * h + w * w)), True
    bp = boundary_pixels(p).astype(np.float64)
    bg = boundary_pixels(g).astype(np.float64)
    diff = bp[:, None, :] - bg[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    # sqrt is monotone and correctly rounded, so it commutes with min
    pooled = np.sqrt(np.concatenate([d2.min(axis=1), d2.min(axis=0)]))
    pooled.sort()
    return _percentile_nearest_rank(pooled, 0.95), False


def hd95(pred, gt) -> float:
    return hd95_flagged(pred, gt)[0]


# ---------------------------------------------------------------------------
# brute-force oracles (independent route: pure-python loops)

def dsc_oracle(pred, gt) -> float:
    p = _as_bool(pred)
    g = _as_bool(gt)
    inter = both = 0
    for a, b in zip(p.reshape(-1).tolist(), g.reshape(-1).tolist()):
        inter += a and b
        both += a + b
    if both == 0:
        return 1.0
    return 2.0 * inter / both


def _boundary_oracle(m: np.ndarray) -> list[tuple[int, int]]:
    h, w = m.shape
    out = []
    for y in range(h):
        for x in range(w):
            if not m[y, x]:
                continue
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ny, nx = y + dy, x + dx
                if ny < 0 or ny >= h or nx < 0 or nx >= w or not m[ny, nx]:
                    out.append((y, x))
                    break
    return out


def hd95_oracle(pred, gt) -> float:
    p = _as_bool(pred)
    g = _as_bool(gt)
    if not p.any() and not g.any():
        return 0.0
    if p.any() != g.any():
        h, w = p.shape
        return float(np.sqrt(h * h + w * w))
    bp = _boundary_oracle(p)
    bg = _boundary_oracle(g)
    pooled = []
    for src, dst in ((bp, bg), (bg, bp)):
        for (y, x) in src:
            best = math.inf
            for (v, u) in dst:
                dy = float(y - v)
                dx = float(x - u)
                dist = np.sqrt(dy * dy + dx * dx)
                if dist < best:
                    best = dist
            pooled.append(best)
    pooled.sort()
    rank = math.ceil(0.95 * len(pooled))
    return float(pooled[max(rank, 1) - 1])


# ---------------------------------------------------------------------------
# dataset evaluation

def evaluate(forward_fn, samples, num_classes: int, batch: int = 4) -> dict:
    """Per-class one-vs-rest DSC/HD95 over a dataset, reported in the
    tables' shape: per foreground class plus means. A class absent from a
    sample's ground truth skips that sample for that class.

    Raises ShapeError when `forward_fn` does not return (len(chunk), H, W,
    num_classes) logits for a chunk of (H, W) images, or a mask is not
    (H, W), and ConfigError for a mask value that is not an integral class
    id in [0, num_classes)."""
    if batch < 1:
        raise ConfigError(f"evaluate needs batch >= 1, got {batch}")
    if num_classes < 2:
        raise ConfigError(f"evaluate needs num_classes >= 2 (background and one "
                          f"foreground class), got {num_classes}")
    if not samples:
        raise ShapeError("evaluate needs a non-empty dataset")
    per_class: dict[int, dict[str, list]] = {
        c: {"dsc": [], "hd95": [], "sentinels": 0} for c in range(1, num_classes)}
    preds, gts = [], []
    for start in range(0, len(samples), batch):
        chunk = samples[start:start + batch]
        x = Tensor(np.stack([s.image.data for s in chunk]))
        logits = forward_fn(x, training=False).data
        want = (len(chunk),) + x.shape[1:3] + (num_classes,)
        if logits.shape != want:
            raise ShapeError(f"forward gave logits of shape {logits.shape}, expected {want}")
        if any(s.mask.shape != want[1:3] for s in chunk):
            raise ShapeError(f"a mask of samples {start}..{start + len(chunk) - 1} is not "
                             f"{want[1]}x{want[2]} like its image")
        masks = np.stack([s.mask.data for s in chunk])
        ids = np.rint(masks)
        if not (np.array_equal(ids, masks) and 0 <= ids.min() and ids.max() < num_classes):
            raise ConfigError(f"masks of samples {start}..{start + len(chunk) - 1} hold "
                              f"values that are not class ids in [0, {num_classes})")
        preds.extend(np.argmax(logits, axis=-1))
        gts.extend(ids.astype(np.int64))
    for pred, gt in zip(preds, gts):
        for c in range(1, num_classes):
            gt_c = gt == c
            if not gt_c.any():
                continue
            pred_c = pred == c
            per_class[c]["dsc"].append(dsc(pred_c, gt_c))
            val, flagged = hd95_flagged(pred_c, gt_c)
            per_class[c]["hd95"].append(val)
            per_class[c]["sentinels"] += flagged
    rows = []
    for c in range(1, num_classes):
        if not per_class[c]["dsc"]:
            continue
        rows.append({
            "class": c,
            "dsc": float(np.mean(per_class[c]["dsc"])),
            "hd95": float(np.mean(per_class[c]["hd95"])),
            "hd95_sentinel_count": int(per_class[c]["sentinels"]),
        })
    if not rows:
        raise ShapeError("no foreground class appears in the dataset")
    return {
        "per_class": rows,
        "mean_dsc": float(np.mean([r["dsc"] for r in rows])),
        "mean_hd95": float(np.mean([r["hd95"] for r in rows])),
        "samples": len(samples),
    }
