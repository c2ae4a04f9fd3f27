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

    def test_incompatible_shapes_detected(self, rng, tmp_path):
        store = make_store(rng)
        other = ParamStore()
        other.add("b.weight", np.zeros((3, 5)))
        other.add("a.bias", np.zeros(5))
        other.add("tables.lookup", np.zeros((2, 2)), trainable=False)
        with pytest.raises(CheckpointError, match="b.weight"):
            check_compatible("x.ckpt", store, other)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))
