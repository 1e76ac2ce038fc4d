import hashlib

import numpy as np
import pytest

import rdteunet.datasynth as ds
from rdteunet.tensor import ConfigError, FormatError, Tensor, TruncationError, write_rdtf


def test_spec_validation():
    with pytest.raises(ConfigError):
        ds.GenSpec(count=0).validate()
    with pytest.raises(ConfigError):
        ds.GenSpec(count=1, size=60).validate()
    with pytest.raises(ConfigError):
        ds.GenSpec(count=1, num_classes=9).validate()


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError):
        ds.generate(ds.GenSpec(count=1, seed=-1))


def test_default_dataset_bytes_are_pinned():
    # the images and masks of the default spec, which benchmark losses depend on
    h = hashlib.sha256()
    for s in ds.generate(ds.GenSpec(count=8, seed=0)):
        h.update(s.image.data.tobytes())
        h.update(s.mask.data.tobytes())
    assert h.hexdigest() == "5ed53113b30e841d3ffa95ce919daf397d325ee970f9e9056ff3b70ca22c50cc"


def test_determinism_same_seed():
    a = ds.generate(ds.GenSpec(count=8, seed=7))
    b = ds.generate(ds.GenSpec(count=8, seed=7))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image.data, sb.image.data)
        assert np.array_equal(sa.mask.data, sb.mask.data)


def test_distinct_seeds_differ():
    a = ds.generate(ds.GenSpec(count=2, seed=1))
    b = ds.generate(ds.GenSpec(count=2, seed=2))
    assert any(not np.array_equal(sa.image.data, sb.image.data) for sa, sb in zip(a, b))


def test_mask_and_image_contracts():
    for s in ds.generate(ds.GenSpec(count=6, seed=3)):
        ids = ds.mask_ids(s)
        assert ids.min() >= 0 and ids.max() < 4
        assert s.image.shape == (64, 64, 1)
        assert s.mask.shape == (64, 64)
        assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0


def test_foreground_fraction_bounds():
    samples = ds.generate(ds.GenSpec(count=100, seed=11))
    frac = ds.foreground_fraction(samples)
    assert 0.05 <= frac <= 0.60


def test_all_shape_classes_occur():
    samples = ds.generate(ds.GenSpec(count=30, seed=5))
    seen = set()
    for s in samples:
        seen.update(np.unique(ds.mask_ids(s)).tolist())
    assert {0, 1, 2, 3} <= seen


def test_roundtrip_bit_exact(tmp_path):
    spec = ds.GenSpec(count=3, seed=9)
    samples = ds.generate(spec)
    ds.write_dataset(samples, tmp_path, spec)
    again, manifest = ds.read_dataset(tmp_path)
    assert manifest["count"] == 3 and manifest["classes"] == 4
    for sa, sb in zip(samples, again):
        assert np.array_equal(sa.image.data, sb.image.data)
        assert np.array_equal(sa.mask.data, sb.mask.data)


def test_pgm_maxval_error(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n128\n" + bytes(4))
    with pytest.raises(FormatError):
        ds.read_pgm(p)


def test_pgm_roundtrip_and_truncation(tmp_path):
    ids = np.arange(12).reshape(3, 4) % 4
    p = tmp_path / "m.pgm"
    ds.write_pgm(p, ids)
    assert np.array_equal(ds.read_pgm(p), ids)
    p.write_bytes(p.read_bytes()[:-2])
    with pytest.raises(TruncationError):
        ds.read_pgm(p)


def test_missing_file_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        ds.read_sample(tmp_path, 0)


def test_manifest_count_beyond_samples_error(tmp_path):
    # the manifest lists two samples, the directory holds one
    ds.write_dataset(ds.generate(ds.GenSpec(count=1, seed=4)), tmp_path,
                     ds.GenSpec(count=2, seed=4))
    with pytest.raises(FormatError, match="sample 1 is missing"):
        ds.read_dataset(tmp_path)


@pytest.mark.parametrize("image_shape", [(32, 32), (32, 32, 3), (1, 32, 32, 1)],
                         ids=["no_channel_axis", "three_channels", "batched"])
def test_image_that_is_not_h_w_1_error(tmp_path, image_shape):
    ds.write_dataset(ds.generate(ds.GenSpec(count=1, size=32, seed=4)), tmp_path,
                     ds.GenSpec(count=1, size=32, seed=4))
    write_rdtf(tmp_path / "img_00000.rdtf", Tensor(np.zeros(image_shape, np.float32)))
    with pytest.raises(FormatError, match=r"not \(H, W, 1\)"):
        ds.read_sample(tmp_path, 0)
    with pytest.raises(FormatError):
        ds.read_dataset(tmp_path)


def test_sample_size_differs_from_manifest_error(tmp_path):
    # 32x32 samples under a manifest that says size 64
    ds.write_dataset(ds.generate(ds.GenSpec(count=2, size=32, seed=4)), tmp_path,
                     ds.GenSpec(count=2, size=64, seed=4))
    with pytest.raises(FormatError, match="size 64"):
        ds.read_dataset(tmp_path)


def test_class_range_check_on_read(tmp_path):
    spec = ds.GenSpec(count=1, seed=4)
    (s,) = ds.generate(spec)
    ds.write_sample(s, tmp_path, 0)
    with pytest.raises(FormatError):
        ds.read_sample(tmp_path, 0, num_classes=1)
