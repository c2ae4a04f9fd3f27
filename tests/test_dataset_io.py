import json
import os

import numpy as np
import pytest

from relformer.data import Vocab
from relformer.dataset_io import (load_dataset, read_feature_file, save_dataset,
                                  write_feature_file)
from relformer.errors import DataError


def structurally_equal(a, b) -> bool:
    if (a.video_id, a.frame_count) != (b.video_id, b.frame_count):
        return False
    if len(a.tracklets) != len(b.tracklets) or len(a.gt_objects) != len(b.gt_objects):
        return False
    for ta, tb in zip(a.tracklets + a.gt_objects, b.tracklets + b.gt_objects):
        if (ta.id, ta.category, ta.slot) != (tb.id, tb.category, tb.slot):
            return False
        if not np.array_equal(ta.boxes, tb.boxes):
            return False
        if not np.array_equal(ta.appearance, tb.appearance):
            return False
        if (ta.probs is None) != (tb.probs is None):
            return False
        if ta.probs is not None and not np.array_equal(ta.probs, tb.probs):
            return False
    return a.gt_relations == b.gt_relations


class TestFeatureFiles:
    def test_roundtrip_and_header(self, rng, tmp_path):
        path = tmp_path / "x.trkf"
        matrix = rng.normal(size=(5, 3)).astype(np.float32)
        write_feature_file(str(path), matrix)
        raw = path.read_bytes()
        assert raw[:4] == b"TRKF"
        assert len(raw) == 16 + 5 * 3 * 4
        np.testing.assert_array_equal(read_feature_file(str(path)), matrix)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.trkf"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(DataError, match="TRKF"):
            read_feature_file(str(path))


class TestRoundTrip:
    def test_empty_dataset_is_valid(self, tmp_path):
        vocab = Vocab(objects=("a", "b"), predicates=("p",))
        save_dataset(str(tmp_path / "ds"), [], vocab)
        samples, loaded_vocab = load_dataset(str(tmp_path / "ds"))
        assert samples == []
        assert loaded_vocab == vocab

    def test_synth_save_load_identity(self, toy_dataset, tmp_path):
        samples, vocab = toy_dataset
        save_dataset(str(tmp_path / "ds"), samples, vocab)
        loaded, loaded_vocab = load_dataset(str(tmp_path / "ds"))
        assert loaded_vocab == vocab
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert structurally_equal(a, b)

    def test_save_twice_is_byte_identical(self, toy_dataset, tmp_path):
        samples, vocab = toy_dataset
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        save_dataset(str(d1), samples, vocab)
        save_dataset(str(d2), samples, vocab)
        for name in sorted(os.listdir(d1)):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_refuses_nonempty_dir_without_force(self, toy_dataset, tmp_path):
        samples, vocab = toy_dataset
        target = str(tmp_path / "ds")
        save_dataset(target, samples, vocab)
        with pytest.raises(DataError, match="not empty"):
            save_dataset(target, samples, vocab)
        save_dataset(target, samples, vocab, force=True)


class TestValidation:
    def _write_minimal(self, tmp_path, mutate=None):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "vocab.json").write_text(json.dumps(
            {"objects": ["a", "b"], "predicates": ["p"]}))
        write_feature_file(str(ds / "video_v0.trkf"),
                           np.zeros((4, 3), dtype=np.float32))
        doc = {
            "video_id": "v0", "frame_count": 10,
            "tracklets": [{
                "id": 3, "start": 0.0, "end": 0.2, "category": 0,
                "probs": [1.0, 0.0],
                "boxes": [[0.1, 0.1, 0.2, 0.2], [0.1, 0.1, 0.2, 0.2]],
                "features": "video_v0.trkf#0"}],
            "gt_objects": [{
                "id": 0, "start": 0.0, "end": 0.2, "category": 0,
                "boxes": [[0.1, 0.1, 0.2, 0.2], [0.1, 0.1, 0.2, 0.2]],
                "features": "video_v0.trkf#2"}],
            "gt_relations": [],
        }
        if mutate:
            mutate(doc)
        (ds / "video_v0.json").write_text(json.dumps(doc))
        return str(ds)

    def test_valid_minimal_loads(self, tmp_path):
        samples, _ = load_dataset(self._write_minimal(tmp_path))
        assert len(samples) == 1
        assert samples[0].tracklets[0].id == 3

    def test_inverted_box_names_tracklet_id(self, tmp_path):
        def flip(doc):
            doc["tracklets"][0]["boxes"][0] = [0.3, 0.1, 0.2, 0.2]
        path = self._write_minimal(tmp_path, flip)
        with pytest.raises(DataError, match=r"tracklets\[0\].*tracklet 3"):
            load_dataset(path)

    def test_missing_field_names_file_and_field(self, tmp_path):
        def drop(doc):
            del doc["tracklets"][0]["category"]
        path = self._write_minimal(tmp_path, drop)
        with pytest.raises(DataError, match="video_v0.json.*category"):
            load_dataset(path)

    def test_out_of_range_feature_ref(self, tmp_path):
        def bump(doc):
            doc["tracklets"][0]["features"] = "video_v0.trkf#3"
        path = self._write_minimal(tmp_path, bump)
        with pytest.raises(DataError, match="out of range"):
            load_dataset(path)

    def test_predicate_outside_vocab(self, tmp_path):
        def add_rel(doc):
            doc["gt_objects"].append(dict(doc["gt_objects"][0], id=1))
            doc["gt_relations"].append(
                {"subject": 0, "object": 1, "predicate": 5, "start": 0.0, "end": 0.2})
        path = self._write_minimal(tmp_path, add_rel)
        with pytest.raises(DataError, match="predicate 5 outside vocab"):
            load_dataset(path)
