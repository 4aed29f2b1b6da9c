"""Tests for the tensor container, JSONL records, and stage manifests."""

import hashlib
import json
import struct

import numpy as np
import pytest

from camreid import storage
from camreid.errors import ManifestError


# ---------------------------------------------------------------- tensors


def test_tensor_roundtrip_all_dtypes(tmp_path):
    p = tmp_path / "t.bin"
    tensors = {
        "emb": np.arange(12, dtype=np.float32).reshape(3, 4),
        "loss": np.array([0.5, 0.25, 0.125], dtype=np.float64),
        "ids": np.array([[7, 8], [9, 10]], dtype=np.int64),
    }
    storage.write_tensors(p, tensors)
    back = storage.read_tensors(p, ("emb", "ids"))
    assert set(back) == set(tensors)
    with pytest.raises(ManifestError, match=r"lacks the tensors \['w0', 'b0'\]"):
        storage.read_tensors(p, ("emb", "w0", "b0"))
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        np.testing.assert_array_equal(back[name], arr)


def test_tensor_roundtrip_scalar_and_empty(tmp_path):
    # Scalars are stored as length-1 vectors (contiguity promotion); empty
    # tensors keep their shape.
    p = tmp_path / "t.bin"
    storage.write_tensors(p, {"s": np.float64(3.5), "e": np.zeros((0, 4), dtype=np.float32)})
    back = storage.read_tensors(p)
    assert back["s"].shape == (1,)
    assert back["s"][0] == 3.5
    assert back["e"].shape == (0, 4)


def test_tensor_coerces_offspec_dtypes(tmp_path):
    # int32 widens to int64, float16 to float64; values must survive.
    p = tmp_path / "t.bin"
    storage.write_tensors(
        p, {"i": np.array([1, 2], dtype=np.int32), "f": np.array([0.5], dtype=np.float16)}
    )
    back = storage.read_tensors(p)
    assert back["i"].dtype == np.int64
    assert back["f"].dtype == np.float64
    np.testing.assert_array_equal(back["i"], [1, 2])
    np.testing.assert_array_equal(back["f"], [0.5])


def test_tensor_fortran_order_roundtrip(tmp_path):
    p = tmp_path / "t.bin"
    arr = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
    storage.write_tensors(p, {"a": arr})
    np.testing.assert_array_equal(storage.read_tensors(p)["a"], arr)


def test_tensor_bytes_follow_the_container_layout(tmp_path):
    # The payloads are the arrays' own little-endian C-order bytes, written
    # and read without intermediate copies; the layout is unchanged.
    p = tmp_path / "t.bin"
    a = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
    b = np.array([-3, 9], dtype=np.int64)
    storage.write_tensors(p, {"a": a, "bb": b})
    want = (
        storage.MAGIC + struct.pack("<II", storage.FORMAT_VERSION, 2)
        + struct.pack("<H", 1) + b"a" + struct.pack("<BB", 0, 2) + struct.pack("<2Q", 2, 3)
        + np.ascontiguousarray(a).astype("<f4").tobytes()
        + struct.pack("<H", 2) + b"bb" + struct.pack("<BB", 2, 1) + struct.pack("<Q", 2)
        + b.astype("<i8").tobytes()
    )
    assert p.read_bytes() == want
    back = storage.read_tensors(p)
    assert back["a"].flags.c_contiguous and back["a"].flags.writeable
    np.testing.assert_array_equal(back["a"], a)
    np.testing.assert_array_equal(back["bb"], b)


def test_tensor_truncated_header_raises(tmp_path):
    p = tmp_path / "t.bin"
    storage.write_tensors(p, {"name": np.arange(3, dtype=np.float64)})
    raw = p.read_bytes()
    for cut in (6, 13, 16, 20):
        p.write_bytes(raw[:cut])
        with pytest.raises(ManifestError):
            storage.read_tensors(p)


def test_tensor_missing_file_raises(tmp_path):
    with pytest.raises(ManifestError):
        storage.read_tensors(tmp_path / "nope.bin")


def test_tensor_bad_magic_raises(tmp_path):
    p = tmp_path / "t.bin"
    storage.write_tensors(p, {"a": np.zeros(2, dtype=np.float32)})
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(ManifestError):
        storage.read_tensors(p)


def test_tensor_bad_version_raises(tmp_path):
    p = tmp_path / "t.bin"
    storage.write_tensors(p, {"a": np.zeros(2, dtype=np.float32)})
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    p.write_bytes(bytes(raw))
    with pytest.raises(ManifestError):
        storage.read_tensors(p)


def test_tensor_truncated_payload_raises(tmp_path):
    p = tmp_path / "t.bin"
    storage.write_tensors(p, {"a": np.arange(8, dtype=np.float64)})
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(ManifestError):
        storage.read_tensors(p)


def test_tensor_unknown_dtype_tag_raises(tmp_path):
    p = tmp_path / "t.bin"
    blob = (
        storage.MAGIC
        + struct.pack("<II", storage.FORMAT_VERSION, 1)
        + struct.pack("<H", 1)
        + b"a"
        + struct.pack("<BB", 9, 1)
        + struct.pack("<Q", 0)
    )
    p.write_bytes(blob)
    with pytest.raises(ManifestError):
        storage.read_tensors(p)


# ---------------------------------------------------------------- records


def test_records_roundtrip(tmp_path):
    p = tmp_path / "r.jsonl"
    recs = [{"k": 1, "v": [1, 2]}, {"k": 2, "v": {"nested": True}}]
    storage.write_records(p, recs)
    assert storage.read_records(p) == recs


def test_records_skip_blank_lines(tmp_path):
    p = tmp_path / "r.jsonl"
    p.write_text('{"a": 1}\n\n{"b": 2}\n')
    assert storage.read_records(p) == [{"a": 1}, {"b": 2}]


def test_records_corrupt_line_raises(tmp_path):
    p = tmp_path / "r.jsonl"
    p.write_text('{"a": 1}\n{not json\n')
    with pytest.raises(ManifestError):
        storage.read_records(p)


def test_failed_write_keeps_previous_file(tmp_path):
    p = tmp_path / "r.jsonl"
    storage.write_records(p, [{"a": 1}])
    before = p.read_bytes()

    def records():
        yield {"a": 2}
        raise RuntimeError("died mid-write")

    with pytest.raises(RuntimeError):
        storage.write_records(p, records())
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["r.jsonl"]


def test_records_missing_file_raises(tmp_path):
    with pytest.raises(ManifestError):
        storage.read_records(tmp_path / "nope.jsonl")


@pytest.mark.parametrize(
    "columns",
    [
        {"gt_id": [-1, -1, 4], "det_id": [0, -7, 2**40], "frame": [3, 0, -2]},
        {"det_id": np.array([5, -3, 0], dtype=np.int64)},
        {"det_id": np.zeros(0, dtype=np.int64), "frame": []},
    ],
    ids=["negative-ints", "one-key", "no-rows"],
)
def test_int_records_match_write_records_bytes(tmp_path, columns):
    names = list(columns)
    rows = zip(*(np.asarray(columns[k]).tolist() for k in names))
    storage.write_records(tmp_path / "a.jsonl", (dict(zip(names, r)) for r in rows))
    storage.write_int_records(tmp_path / "b.jsonl", columns)
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
    # And read_int_records is its mirror: the columns read_records gives.
    got = storage.read_int_records(tmp_path / "b.jsonl", names)
    recs = storage.read_records(tmp_path / "a.jsonl")
    assert sorted(got) == sorted(names)
    for name, col in got.items():
        assert col.dtype == np.int64
        assert col.tolist() == [r[name] for r in recs] == np.asarray(columns[name]).tolist()


@pytest.mark.parametrize(
    "line",
    [
        '{"det_id": 2, "frame": ',  # cut
        '{"frame": 1, "det_id": 2}\n',  # reordered keys
        '{"det_id": 2.0, "frame": 1}\n',  # float
        '{"det_id": 2, "frame": 1, "gt_id": 3}\n',  # extra key
        '{"det_id": 2}\n',  # missing key
        '{"det_id": +2, "frame": 1}\n',  # not as the writer renders it
        '{"det_id":2, "frame": 1}\n',  # other spacing
        '{"det_id": 99999999999999999999, "frame": 1}\n',  # beyond int64
    ],
    ids=["cut", "reordered", "float", "extra-key", "missing-key", "plus-sign", "spacing", "out-of-range"],
)
def test_read_int_records_names_the_first_bad_line(tmp_path, line):
    p = tmp_path / "a.jsonl"
    storage.write_int_records(p, {"det_id": [0, 1], "frame": [5, 6]})
    good = p.read_text()
    p.write_text(good + line + good)
    with pytest.raises(ManifestError, match=r"a\.jsonl:3:"):
        storage.read_int_records(p, ["det_id", "frame"])


def test_read_int_records_skips_blank_lines_as_read_records_does(tmp_path):
    p = tmp_path / "a.jsonl"
    p.write_text('{"det_id": 4}\n\n{"det_id": -1}\n\n')
    assert storage.read_int_records(p, ["det_id"])["det_id"].tolist() == [4, -1]


def test_read_int_records_missing_file_raises(tmp_path):
    with pytest.raises(ManifestError):
        storage.read_int_records(tmp_path / "nope.jsonl", ["det_id"])


# ---------------------------------------------------------------- digests


def test_sha256_file_matches_hashlib(tmp_path):
    p = tmp_path / "blob"
    data = b"some bytes\x00\x01" * 100
    p.write_bytes(data)
    assert storage.sha256_file(p) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (5 << 19) + 3])
def test_sha256_file_matches_hashlib_across_block_sizes(tmp_path, size):
    p = tmp_path / "blob"
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    p.write_bytes(data)
    assert storage.sha256_file(p) == hashlib.sha256(data).hexdigest()


def test_fingerprint_ignores_key_order():
    a = storage.fingerprint_payload({"x": 1, "y": [2, 3]})
    b = storage.fingerprint_payload({"y": [2, 3], "x": 1})
    assert a == b
    assert a != storage.fingerprint_payload({"x": 1, "y": [2, 4]})


# ---------------------------------------------------------------- manifests


@pytest.fixture
def stage(tmp_path):
    """A stage directory with one output file and a written manifest."""
    out = tmp_path / "emb.bin"
    storage.write_tensors(out, {"a": np.ones(3, dtype=np.float32)})
    inputs = {"train": "deadbeef"}
    storage.write_manifest(tmp_path, "extract", inputs, [out], "fp123", extra={"n": 3})
    return tmp_path, inputs, out


def test_manifest_roundtrip(stage):
    stage_dir, inputs, out = stage
    m = storage.read_manifest(stage_dir)
    assert m["stage"] == "extract"
    assert m["config_fingerprint"] == "fp123"
    assert m["inputs"] == inputs
    assert m["outputs"] == {out.name: storage.sha256_file(out)}
    assert m["extra"] == {"n": 3}


def test_manifest_matches_when_untouched(stage):
    stage_dir, inputs, _ = stage
    assert storage.manifest_matches(stage_dir, inputs, "fp123")


def test_manifest_mismatch_on_config(stage):
    stage_dir, inputs, _ = stage
    assert not storage.manifest_matches(stage_dir, inputs, "other")


def test_manifest_mismatch_on_inputs(stage):
    stage_dir, _, _ = stage
    assert not storage.manifest_matches(stage_dir, {"train": "feedface"}, "fp123")


def test_manifest_mismatch_on_tampered_output(stage):
    stage_dir, inputs, out = stage
    storage.write_tensors(out, {"a": np.zeros(3, dtype=np.float32)})
    assert not storage.manifest_matches(stage_dir, inputs, "fp123")


def test_manifest_mismatch_on_deleted_output(stage):
    stage_dir, inputs, out = stage
    out.unlink()
    assert not storage.manifest_matches(stage_dir, inputs, "fp123")


def test_manifest_missing_dir_is_no_match(tmp_path):
    assert not storage.manifest_matches(tmp_path / "none", {}, "fp")


def test_manifest_corrupt_json_raises(tmp_path):
    (tmp_path / "manifest.json").write_text("{broken")
    with pytest.raises(ManifestError):
        storage.read_manifest(tmp_path)
    assert not storage.manifest_matches(tmp_path, {}, "fp")


def test_validate_inputs(tmp_path):
    p = tmp_path / "in.bin"
    p.write_bytes(b"abc")
    got = storage.validate_inputs({"train": p})
    assert got == {"train": hashlib.sha256(b"abc").hexdigest()}
    with pytest.raises(ManifestError):
        storage.validate_inputs({"train": p, "other": tmp_path / "gone"})
