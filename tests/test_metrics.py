import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdteunet.datasynth as ds
import rdteunet.metrics as mx
from rdteunet.tensor import ConfigError, ShapeError, Tensor


def blank(h=8, w=8):
    return np.zeros((h, w), dtype=bool)


# ---------------------------------------------------------------------------
# dsc

def test_dsc_identity():
    m = blank()
    m[2:5, 2:5] = True
    assert mx.dsc(m, m) == 1.0


def test_dsc_disjoint():
    p, g = blank(), blank()
    p[0, 0] = True
    g[5, 5] = True
    assert mx.dsc(p, g) == 0.0


def test_dsc_shifted_block_half():
    p, g = blank(4, 4), blank(4, 4)
    p[1:3, 0:2] = True
    g[1:3, 1:3] = True
    assert mx.dsc(p, g) == 0.5


def test_dsc_both_empty_is_one():
    assert mx.dsc(blank(), blank()) == 1.0


def test_dsc_shape_mismatch():
    with pytest.raises(ShapeError):
        mx.dsc(blank(4, 4), blank(5, 5))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dsc_symmetry(seed):
    rng = np.random.default_rng(seed)
    p = rng.random((6, 6)) < 0.4
    g = rng.random((6, 6)) < 0.4
    assert mx.dsc(p, g) == mx.dsc(g, p)


# ---------------------------------------------------------------------------
# hd95

def test_hd95_identity_zero():
    m = blank()
    m[2:6, 3:7] = True
    assert mx.hd95(m, m) == 0.0


def test_hd95_two_points_three_apart():
    p, g = blank(), blank()
    p[4, 1] = True
    g[4, 4] = True
    assert mx.hd95(p, g) == 3.0


def test_hd95_sentinel_on_single_empty():
    g = blank(8, 8)
    g[1, 1] = True
    val, flagged = mx.hd95_flagged(blank(8, 8), g)
    assert flagged
    assert val == pytest.approx(np.sqrt(128.0))


def test_hd95_both_empty_zero():
    val, flagged = mx.hd95_flagged(blank(), blank())
    assert val == 0.0 and not flagged


def test_hd95_symmetry_and_max_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.random((10, 10)) < 0.3
        g = rng.random((10, 10)) < 0.3
        if not (p.any() and g.any()):
            continue
        a = mx.hd95(p, g)
        assert a == mx.hd95(g, p)
        bp = mx.boundary_pixels(p).astype(float)
        bg = mx.boundary_pixels(g).astype(float)
        d = np.sqrt(((bp[:, None, :] - bg[None, :, :]) ** 2).sum(axis=2))
        exact_hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert a <= exact_hausdorff + 1e-12


def test_boundary_includes_image_border():
    m = np.ones((3, 3), dtype=bool)
    b = mx.boundary_pixels(m)
    # center pixel is interior; all 8 border pixels are boundary
    assert len(b) == 8
    assert [1, 1] not in b.tolist()


# ---------------------------------------------------------------------------
# oracle equivalence

def test_oracle_equivalence_200_random_pairs():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        p = rng.random((16, 16)) < rng.uniform(0.1, 0.5)
        g = rng.random((16, 16)) < rng.uniform(0.1, 0.5)
        assert mx.dsc(p, g) == mx.dsc_oracle(p, g)
        assert mx.hd95(p, g) == mx.hd95_oracle(p, g)
        checked += 1


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (3, 17), (17, 3)],
                         ids=["1x9", "9x1", "2x2", "3x17", "17x3"])
def test_oracle_equivalence_thin_and_non_square(shape):
    # masks with no inner block, or one only a pixel thick
    rng = np.random.default_rng(sum(shape))
    for _ in range(40):
        p = rng.random(shape) < rng.uniform(0.2, 0.8)
        g = rng.random(shape) < rng.uniform(0.2, 0.8)
        for m in (p, g):
            assert sorted(map(tuple, mx.boundary_pixels(m).tolist())) == sorted(
                mx._boundary_oracle(m))
        assert mx.hd95(p, g) == mx.hd95_oracle(p, g)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_perfect_oracle():
    samples = ds.generate(ds.GenSpec(count=6, seed=13))
    masks = [np.rint(s.mask.data).astype(np.int64) for s in samples]
    cursor = {"i": 0}

    def oracle(x, training=False):
        n = x.shape[0]
        outs = []
        for _ in range(n):
            m = masks[cursor["i"]]
            cursor["i"] += 1
            onehot = np.full((*m.shape, 4), -20.0, dtype=np.float32)
            np.put_along_axis(onehot, m[..., None], 20.0, axis=-1)
            outs.append(onehot)
        return Tensor(np.stack(outs))

    report = mx.evaluate(oracle, samples, num_classes=4)
    assert report["mean_dsc"] == 1.0
    assert report["mean_hd95"] == 0.0
    assert report["samples"] == 6
    for row in report["per_class"]:
        assert row["dsc"] == 1.0
        assert row["hd95"] == 0.0
        assert row["hd95_sentinel_count"] == 0


def test_evaluate_constant_background_predictor():
    samples = ds.generate(ds.GenSpec(count=4, seed=14))

    def bg_only(x, training=False):
        n, h, w, _ = x.shape
        logits = np.full((n, h, w, 4), -20.0, dtype=np.float32)
        logits[..., 0] = 20.0
        return Tensor(logits)

    report = mx.evaluate(bg_only, samples, num_classes=4)
    for row in report["per_class"]:
        assert row["dsc"] == 0.0
        assert row["hd95_sentinel_count"] > 0


def test_evaluate_report_json_roundtrip(tmp_path):
    samples = ds.generate(ds.GenSpec(count=3, seed=15))

    def rand_model(x, training=False):
        rng = np.random.default_rng(0)
        return Tensor(rng.standard_normal((*x.shape[:3], 4)).astype(np.float32))

    report = mx.evaluate(rand_model, samples, num_classes=4)
    p = tmp_path / "report.json"
    p.write_text(json.dumps(report))
    again = json.loads(p.read_text())
    assert again == report
    assert set(again) == {"per_class", "mean_dsc", "mean_hd95", "samples"}


@pytest.mark.parametrize("kwargs", [{"batch": 0}, {"batch": -1}, {"num_classes": 1},
                                    {"num_classes": 0}],
                         ids=["batch0", "batch_neg", "one_class", "no_class"])
def test_evaluate_rejects_bad_arguments_before_any_forward(kwargs):
    samples = ds.generate(ds.GenSpec(count=2, seed=16))
    calls = []

    def model(x, training=False):
        calls.append(x.shape)
        return Tensor(np.zeros((*x.shape[:3], 4), dtype=np.float32))

    args = {"num_classes": 4, "batch": 4, **kwargs}
    with pytest.raises(ConfigError):
        mx.evaluate(model, samples, **args)
    assert calls == []


def _with_mask_value(sample, value):
    mask = sample.mask.data.copy()
    mask[0, 0] = value
    return ds.SegSample(image=sample.image, mask=Tensor(mask))


@pytest.mark.parametrize("case, error", [
    ("three_class_logits", ShapeError),   # a forward of 3 classes scored as 4
    ("one_logits_row_short", ShapeError),  # fewer logits rows than images
    ("logits_wrong_size", ShapeError),     # logits of another spatial size
    ("class_7_in_mask", ConfigError),      # was silently counted as background
    ("negative_id", ConfigError),
    ("fractional_id", ConfigError),
    ("nan_id", ConfigError),
])
def test_evaluate_rejects_inconsistent_logits_and_masks(case, error):
    samples = ds.generate(ds.GenSpec(count=3, seed=17))
    classes, rows, size = 4, None, None
    if case == "three_class_logits":
        classes = 3
    elif case == "one_logits_row_short":
        rows = 1
    elif case == "logits_wrong_size":
        size = 32
    else:
        value = {"class_7_in_mask": 7.0, "negative_id": -1.0, "fractional_id": 1.5,
                 "nan_id": np.nan}[case]
        samples[2] = _with_mask_value(samples[2], value)

    def model(x, training=False):
        n = x.shape[0] if rows is None else rows
        h = w = x.shape[1] if size is None else size
        return Tensor(np.zeros((n, h, w, classes), dtype=np.float32))

    with pytest.raises(error):
        mx.evaluate(model, samples, num_classes=4, batch=2)
