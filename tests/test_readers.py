"""Every file reader (RDTF, checkpoint, PGM, manifest) either returns a valid
object or raises FormatError / TruncationError, whatever bytes it is given."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdteunet.datasynth as ds
import rdteunet.model as M
import rdteunet.tensor as T
from rdteunet.tensor import FormatError, Tensor, TruncationError

# reader name -> (file name, function reading that file)
READERS = {
    "rdtf": ("t.rdtf", T.read_rdtf),
    "ckpt": ("m.rdtc", M.load_checkpoint),
    "pgm": ("m.pgm", ds.read_pgm),
    "manifest": ("manifest.json", lambda p: ds.read_manifest(p.parent)),
}
TINY = M.ModelConfig(h=32, w=32, base_width=1, variant="no_hvda", seed=0)


@pytest.fixture(scope="module")
def tiny_model():
    return M.RdteUnet(TINY)


def _entries(model):
    entries = {n: p.value for n, p in model.store.items()}
    for bn in model.store.buffer_names():
        entries[bn] = Tensor(model.store.buffer(bn).copy())
    return entries


def _raw(data: bytes):
    return lambda path, model: path.write_bytes(data)


def _ckpt_raw(config: bytes, name: bytes = b""):
    """A checkpoint holding one zero scalar entry under `name` (none if empty)."""
    entry = b""
    if name:
        entry = len(name).to_bytes(2, "little") + name + b"RDTF" + bytes([1, 0, 0, 0]) + bytes(4)
    return _raw(M.CKPT_MAGIC + bytes([1]) + (1 if name else 0).to_bytes(4, "little") + entry
                + len(config).to_bytes(4, "little") + config)


def _ckpt(entries=None, **config):
    """A checkpoint of the tiny model, with entries and config fields overridden."""
    return lambda path, model: M.write_checkpoint_raw(
        path, {**_entries(model), **(entries or {})}, {**TINY.to_dict(), "step": 0, **config})


def _manifest(**fields):
    doc = {"count": 3, "size": 64, "classes": 4, "seed": 0, "format": "rdtf+pgm", **fields}
    return _raw(json.dumps(doc).encode())


MALFORMED = {
    "rdtf-rank_65": _raw(b"RDTF" + bytes([1, 0, 65, 0]) + (1).to_bytes(4, "little") * 65
                         + bytes(4)),
    "ckpt-name_not_utf8": _ckpt_raw(b"{}", name=b"\xff\xfe"),
    "ckpt-config_not_utf8": _ckpt_raw(b"\xff"),
    "ckpt-config_bad_json": _ckpt_raw(b"{nope"),
    "ckpt-config_list": _ckpt_raw(b"[]"),
    "ckpt-config_deep_nesting": _ckpt_raw(b"[" * 100_000),
    "ckpt-config_h_str": _ckpt_raw(json.dumps({**TINY.to_dict(), "h": "64"}).encode()),
    "ckpt-config_seed_bool": _ckpt(seed=True),
    "ckpt-step_str": _ckpt(step="x"),
    "ckpt-entry_shape": _ckpt({"head.w": T.zeros((1, 1, 5, 5))}),
    "pgm-zero_width": _raw(b"P5\n0 2\n255\n"),
    "pgm-5000_digit_width": _raw(b"P5\n" + b"9" * 5000 + b" 1\n255\n"),
    "manifest-not_utf8": _raw(b"\xff{}"),
    "manifest-bad_json": _raw(b"{nope"),
    "manifest-number": _raw(b"3"),
    "manifest-count_str": _manifest(count="3"),
    "manifest-count_zero": _manifest(count=0),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_reader_rejects_malformed_bytes(case, tmp_path, tiny_model):
    fname, read = READERS[case.split("-")[0]]
    path = tmp_path / fname
    MALFORMED[case](path, tiny_model)
    with pytest.raises((FormatError, TruncationError)):
        read(path)


# ---------------------------------------------------------------------------
# byte-mutation fuzz: a mutated valid file loads or raises a documented error

MUTATIONS = st.tuples(
    st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(min_value=0)))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, tiny_model):
    """Reader name -> the bytes of a valid file, written once per module."""
    d = tmp_path_factory.mktemp("valid")
    T.write_rdtf(d / "t.rdtf", Tensor(np.arange(6.0).reshape(2, 3)))
    M.save_checkpoint(tiny_model, d / "m.rdtc")
    ds.write_pgm(d / "m.pgm", np.arange(12).reshape(3, 4) % 4)
    ds.write_manifest(d, ds.GenSpec(count=3))
    return {r: (d / fname).read_bytes() for r, (fname, _) in READERS.items()}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _read_mutated(reader, valid, mutation, d):
    edits, cut = mutation
    raw = bytearray(valid)
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    if cut is not None:
        raw = raw[:cut % len(raw)]
    fname, read = READERS[reader]
    (d / fname).write_bytes(bytes(raw))
    try:
        read(d / fname)
    except (FormatError, TruncationError):
        pass


@settings(max_examples=100, deadline=None)
@given(MUTATIONS)
def test_fuzz_rdtf(valid_files, fuzz_dir, mutation):
    _read_mutated("rdtf", valid_files["rdtf"], mutation, fuzz_dir)


@settings(max_examples=40, deadline=None)
@given(MUTATIONS)
def test_fuzz_checkpoint(valid_files, fuzz_dir, mutation):
    _read_mutated("ckpt", valid_files["ckpt"], mutation, fuzz_dir)


@settings(max_examples=100, deadline=None)
@given(MUTATIONS)
def test_fuzz_pgm(valid_files, fuzz_dir, mutation):
    _read_mutated("pgm", valid_files["pgm"], mutation, fuzz_dir)


@settings(max_examples=100, deadline=None)
@given(MUTATIONS)
def test_fuzz_manifest(valid_files, fuzz_dir, mutation):
    _read_mutated("manifest", valid_files["manifest"], mutation, fuzz_dir)
