"""Round-trip and format tests for the binary tensor container."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtda.checkpoint import FORMAT_VERSION, MAGIC, load_features, load_tensors, save_features, save_tensors
from mtda.errors import ContractError
from mtda.manifest import ManifestRow
from mtda.training import load_dataset

from gradcheck import full_disk_after_half, traced_peak


def test_round_trip(tmp_path):
    tensors = {
        "f/conv1": np.random.default_rng(0).normal(size=(4, 1, 3, 3)).astype(np.float32),
        "c/w": np.arange(12, dtype=np.float64).reshape(3, 4),
        "scalar": np.float64(3.5).reshape(()),
    }
    path = tmp_path / "model.mtda"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)


def test_write_cut_short_leaves_no_file_under_the_final_name(tmp_path, monkeypatch):
    old, new = tmp_path / "old.mtt", tmp_path / "new.mtt"
    save_features(old, np.ones((5, 64)))
    before = old.read_bytes()
    full_disk_after_half(monkeypatch)
    for path in (old, new):
        with pytest.raises(OSError, match="No space left"):
            save_features(path, np.zeros((5, 64)))
    # the file that was there keeps its bytes, the new one never appears, and no partial file is left
    assert sorted(tmp_path.iterdir()) == [old] and old.read_bytes() == before


def test_feature_files_round_trip(tmp_path):
    """Feature files store float32 whatever the frames' dtype."""
    frames = np.random.default_rng(1).normal(size=(5, 64))
    paths = [tmp_path / "a.mtt", tmp_path / "b.mtt"]
    for k, path in enumerate(paths):
        save_features(path, frames + k)
    loaded = load_features(paths)
    assert loaded.dtype == np.float32 and loaded.shape == (2, 5, 64)
    np.testing.assert_array_equal(loaded, np.stack([frames, frames + 1]).astype(np.float32))


def test_container_without_features_is_no_feature_file(tmp_path):
    path = tmp_path / "checkpoint.mtda"
    save_tensors(path, {"f/w": np.zeros((4, 64), dtype=np.float32)})
    with pytest.raises(ContractError, match=re.escape(f"{path}: not a feature file (no 'features' tensor)")):
        load_features([path])


def test_feature_shapes_must_agree(tmp_path):
    paths = [tmp_path / "a.mtt", tmp_path / "b.mtt"]
    save_features(paths[0], np.zeros((3, 64)))
    save_features(paths[1], np.zeros((4, 64)))
    with pytest.raises(ContractError, match=re.escape("inconsistent feature shapes: [(3, 64), (4, 64)]")):
        load_features(paths)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_feature_file_is_named(tmp_path, bad):
    paths = [tmp_path / f"{name}.mtt" for name in "abc"]
    for path in paths:
        frames = np.zeros((3, 64), dtype=np.float32)
        if path.stem != "a":  # the first of the two bad files is named
            frames[2, 7] = bad
        save_features(path, frames)
    with pytest.raises(ContractError, match=re.escape(f"{paths[1]}: non-finite feature values")):
        load_features(paths)


def test_no_feature_files_is_an_error():
    with pytest.raises(ContractError, match="no feature files"):
        load_features([])


def test_float64_feature_files_still_load(tmp_path):
    """Feature files were float64 before they were stored float32; they load as their float32 rounding."""
    frames = np.random.default_rng(2).normal(size=(2, 3, 64))
    paths = [tmp_path / "a.mtt", tmp_path / "b.mtt"]
    for path, one in zip(paths, frames):
        save_tensors(path, {"features": one})
    loaded = load_features(paths)
    assert loaded.dtype == np.float32 and loaded.tobytes() == frames.astype(np.float32).tobytes()


def test_mixed_feature_dtypes_load_as_their_float32_rounding(tmp_path):
    frames = np.random.default_rng(3).normal(size=(3, 3, 64))
    paths = [tmp_path / f"{name}.mtt" for name in "abc"]
    for path, one, dtype in zip(paths, frames, (np.float32, np.float64, np.float64)):
        save_tensors(path, {"features": one.astype(dtype)})
    loaded = load_features(paths)
    assert loaded.dtype == np.float32 and loaded.tobytes() == frames.astype(np.float32).tobytes()


def test_float64_value_beyond_float32_range_is_non_finite(tmp_path):
    """1e39 is finite in a float64 file and inf once loaded as float32."""
    paths = [tmp_path / "a.mtt", tmp_path / "big.mtt"]
    save_features(paths[0], np.zeros((3, 64)))
    big = np.zeros((3, 64))
    big[1, 5] = 1e39
    save_tensors(paths[1], {"features": big})
    with pytest.raises(ContractError, match=re.escape(f"{paths[1]}: non-finite feature values")):
        load_features(paths)


def test_missing_features_tensor_outranks_an_earlier_non_finite_file(tmp_path):
    paths = [tmp_path / "nan.mtt", tmp_path / "checkpoint.mtda"]
    save_features(paths[0], np.full((3, 64), np.nan))
    save_tensors(paths[1], {"f/w": np.zeros((3, 64))})
    with pytest.raises(ContractError, match=re.escape(f"{paths[1]}: not a feature file (no 'features' tensor)")):
        load_features(paths)


def test_shapes_outrank_an_earlier_non_finite_file(tmp_path):
    paths = [tmp_path / "nan.mtt", tmp_path / "long.mtt"]
    save_features(paths[0], np.full((3, 64), np.nan))
    save_features(paths[1], np.zeros((4, 64)))
    with pytest.raises(ContractError, match=re.escape("inconsistent feature shapes: [(3, 64), (4, 64)]")):
        load_features(paths)


@pytest.mark.parametrize("through", ["load_features", "load_dataset"])
def test_feature_loading_holds_one_copy(through, tmp_path):
    """The result and a few single-file buffers, never the per-file arrays beside a stacked copy,
    whether the files are read alone or as the train split of a manifest."""
    frames = np.zeros((64, 64), dtype=np.float32)
    paths = [tmp_path / f"{k}.mtt" for k in range(200)]
    for k, path in enumerate(paths):
        save_features(path, frames + k)
    rows = [ManifestRow(id=path.stem, device="A", feature_path=str(path)) for path in paths]
    load = {"load_features": lambda: load_features(paths), "load_dataset": lambda: load_dataset(rows).features}
    loaded, peak = traced_peak(load[through])
    np.testing.assert_array_equal(loaded, np.arange(200, dtype=np.float32)[:, None, None] + frames)
    assert peak <= loaded.nbytes + 4 * frames.nbytes, (peak, loaded.nbytes)


def test_header_layout(tmp_path):
    path = tmp_path / "one.mtda"
    save_tensors(path, {"ab": np.zeros(2, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, count = struct.unpack_from("<HI", raw, 4)
    assert version == FORMAT_VERSION and count == 1
    name_len = struct.unpack_from("<H", raw, 10)[0]
    assert name_len == 2 and raw[12:14] == b"ab"
    dtype_code, rank = raw[14], raw[15]
    assert dtype_code == 0 and rank == 1
    assert struct.unpack_from("<I", raw, 16)[0] == 2


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContractError, match="magic"):
        load_tensors(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ContractError):
        save_tensors(tmp_path / "x.mtda", {"x": np.zeros(3, dtype=np.int32)})


def _random(rng, dtype, dims):
    """Normal floats, or uniform bytes for uint8."""
    if dtype is np.uint8:
        return rng.integers(0, 256, size=dims, dtype=np.uint8)
    return rng.normal(size=dims).astype(dtype)


DTYPES = st.sampled_from([np.float32, np.float64, np.uint8])


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=20),
        st.tuples(
            DTYPES,
            st.lists(st.integers(0, 4), min_size=0, max_size=3),
        ),
        max_size=4,
    ),
    st.integers(0, 2**31 - 1),
)
def test_round_trip_property(tmp_path_factory, spec, seed):
    rng = np.random.default_rng(seed)
    tensors = {name: _random(rng, dtype, dims) for name, (dtype, dims) in spec.items()}
    path = tmp_path_factory.mktemp("ckpt") / "t.mtda"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        np.testing.assert_array_equal(loaded[name], tensors[name])


def _header_offsets(tensors):
    """Byte offset of each tensor's dtype code (its rank byte follows)."""
    offset, found = 10, []
    for name, arr in tensors.items():
        offset += 2 + len(name.encode("utf-8"))
        found.append(offset)
        offset += 2 + 4 * arr.ndim + arr.nbytes
    return found


def _load_or_contract_error(path, expected):
    """A load must either fail with ContractError or reproduce `expected` exactly."""
    try:
        loaded = load_tensors(path)
    except ContractError as exc:
        assert str(path) in str(exc) and "at byte" in str(exc)
        return False
    assert set(loaded) == set(expected)
    for name, arr in expected.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        np.testing.assert_array_equal(loaded[name], arr)
    return True


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=6),
        st.tuples(
            DTYPES,
            st.lists(st.integers(0, 3), min_size=0, max_size=3),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 2**31 - 1),
)
def test_malformed_bytes_end_in_contract_error(tmp_path_factory, spec, seed):
    rng = np.random.default_rng(seed)
    tensors = {name: _random(rng, dtype, dims) for name, (dtype, dims) in spec.items()}
    path = tmp_path_factory.mktemp("ckpt") / "t.mtda"
    save_tensors(path, tensors)
    raw = path.read_bytes()
    bad = path.with_name("bad.mtda")
    for length in range(len(raw) + 1):
        bad.write_bytes(raw[:length])
        assert _load_or_contract_error(bad, tensors) == (length == len(raw))
    for pos in _header_offsets(tensors):
        for flipped in (pos, pos + 1):  # dtype code, then rank
            mutated = bytearray(raw)
            mutated[flipped] ^= 0xFF
            bad.write_bytes(bytes(mutated))
            assert not _load_or_contract_error(bad, tensors)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda raw: raw[:7], "truncated header at byte 4"),
        (lambda raw: raw[:14] + b"\x07" + raw[15:], "unknown dtype code 7 at byte 14"),
        (lambda raw: raw[:-1], "truncated payload"),
        (lambda raw: raw + b"\x00", "1 trailing bytes"),
        (lambda raw: raw[:14] + bytes([0, 65]) + struct.pack("<65I", *[1] * 65) + bytes(4), "rank 65 exceeds 64"),
    ],
)
def test_malformed_error_names_path_and_offset(tmp_path, mutate, match):
    path = tmp_path / "one.mtda"
    save_tensors(path, {"ab": np.zeros(2, dtype=np.float32)})
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(ContractError, match=match) as info:
        load_tensors(path)
    assert str(path) in str(info.value)
