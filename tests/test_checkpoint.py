import json
from pathlib import Path

import numpy as np
import pytest

from relformer.checkpoint import (FORMAT, check_compatible, load_checkpoint,
                                  save_checkpoint)
from relformer.errors import CheckpointError
from relformer.nn import ParamStore


def make_store(rng):
    store = ParamStore()
    store.add("b.weight", rng.normal(size=(3, 4)))
    store.add("a.bias", rng.normal(size=5))
    store.add("tables.lookup", rng.normal(size=(2, 2)), trainable=False)
    return store


def rewrite_entry(path, name, **fields):
    """Change fields of one manifest entry, keeping the blob as it is."""
    header, _, blob = path.read_bytes().partition(b"\n")
    manifest = json.loads(header)
    for entry in manifest["tensors"]:
        if entry["name"] == name:
            entry.update(fields)
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)


class TestRoundTrip:
    def test_values_and_flags_survive(self, rng, tmp_path):
        store = make_store(rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, store, model_meta={"d": 4})
        loaded, manifest = load_checkpoint(path)
        assert manifest["format"] == FORMAT
        assert manifest["model"] == {"d": 4}
        assert loaded.names() == store.names()
        for name, t in store.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
            assert loaded.is_trainable(name) == store.is_trainable(name)

    def test_manifest_is_json_line_with_per_tensor_fields(self, rng, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, make_store(rng))
        with open(path, "rb") as f:
            header = f.readline()
        manifest = json.loads(header)
        entries = manifest["tensors"]
        assert [e["name"] for e in entries] == ["a.bias", "b.weight", "tables.lookup"]
        for e in entries:
            assert set(e) >= {"name", "shape", "dtype", "byte_offset"}
        assert entries[0]["byte_offset"] == 0
        assert entries[1]["byte_offset"] == 5 * 8

    def test_blob_is_little_endian_rowmajor(self, rng, tmp_path):
        store = ParamStore()
        store.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, store)
        with open(path, "rb") as f:
            raw = f.read()
        blob = raw[raw.find(b"\n") + 1:]
        np.testing.assert_array_equal(np.frombuffer(blob, dtype="<f8"),
                                      [1.0, 2.0, 3.0, 4.0])

    def test_loaded_tensors_are_writable_views_of_one_array(self, rng, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, make_store(rng))
        loaded, _ = load_checkpoint(path)
        blob = loaded["a.bias"].data.base
        assert blob is not None and blob.size == 5 + 12 + 4
        assert all(t.data.base is blob for _, t in loaded.items())
        for _, t in loaded.items():
            assert t.data.flags.writeable
        loaded["b.weight"].data[0, 0] = 123.0
        assert blob[5] == 123.0

    def test_save_is_byte_deterministic(self, rng, tmp_path):
        store = make_store(rng)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, store)
        save_checkpoint(p2, store)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestErrors:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format":"other/9","tensors":[]}\n')
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(str(path))

    def test_truncated_blob_rejected(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_store(rng))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format":"relformer-ckpt/1","tensors":[]}')
        with pytest.raises(CheckpointError, match="separator"):
            load_checkpoint(str(path))

    def test_bad_entry_rejected(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_store(rng))
        header, _, blob = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        del manifest["tensors"][0]["shape"]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(CheckpointError, match="bad tensor entry"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("header,message", [
        (b'[1, 2]', "malformed manifest"),
        (b'{"format":"relformer-ckpt/1","tensors":5}', "malformed manifest"),
        (b'{"format":"relformer-ckpt/1","tensors":[{"name":7,"shape":[],'
         b'"dtype":"<f8","byte_offset":0}]}', "bad tensor name")],
        ids=["not_an_object", "tensors_not_a_list", "name_not_a_string"])
    def test_malformed_manifest_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + b"\n" + bytes(8))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("shape", [[-1], [2, -3], [1.5]])
    def test_negative_or_fractional_shape_rejected(self, rng, tmp_path, shape):
        """A -1 would otherwise reshape the rest of the blob into one tensor."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_store(rng))
        rewrite_entry(path, "a.bias", shape=shape)
        with pytest.raises(CheckpointError, match="bad shape"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("dtype", ["<f4", ">f8", "float64"])
    def test_dtype_other_than_f8_rejected(self, rng, tmp_path, dtype):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_store(rng))
        rewrite_entry(path, "b.weight", dtype=dtype)
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("offset", [4, -8, 8.0])
    def test_misaligned_offset_rejected(self, rng, tmp_path, offset):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_store(rng))
        rewrite_entry(path, "b.weight", byte_offset=offset)
        with pytest.raises(CheckpointError, match="misaligned"):
            load_checkpoint(str(path))

    def test_incompatible_shapes_detected(self, rng, tmp_path):
        store = make_store(rng)
        other = {"b.weight": (3, 5), "a.bias": (5,), "tables.lookup": (2, 2)}
        with pytest.raises(CheckpointError, match="b.weight"):
            check_compatible("x.ckpt", store, other)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))
