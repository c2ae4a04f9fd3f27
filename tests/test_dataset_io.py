import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from relformer.data import MAX_FRAME_COUNT, GtObject, Vocab
from relformer.dataset_io import (BOXES, FEATURES, load_dataset, read_feature_file,
                                  read_matrix_file, save_dataset, write_feature_file,
                                  write_matrix_file)
from relformer.errors import DataError
from relformer.synth import SynthConfig, synth_generate


def structurally_equal(a, b) -> bool:
    if (a.video_id, a.frame_count) != (b.video_id, b.frame_count):
        return False
    if len(a.tracklets) != len(b.tracklets) or len(a.gt_objects) != len(b.gt_objects):
        return False
    for ga, gb in zip(a.tracklets + a.gt_objects, b.tracklets + b.gt_objects):
        if (type(ga), ga.id, ga.category, ga.slot) != (type(gb), gb.id, gb.category, gb.slot):
            return False
        if not np.array_equal(ga.boxes, gb.boxes):
            return False
    for ta, tb in zip(a.tracklets, b.tracklets):
        if not (np.array_equal(ta.appearance, tb.appearance)
                and np.array_equal(ta.probs, tb.probs)):
            return False
    return a.gt_relations == b.gt_relations


def older_layout_message(where, key, name="video_v0.json"):
    return (rf"^{re.escape(name)}: {re.escape(where)}: field '{key}' belongs to a dataset "
            "layout that is no longer read; regenerate the dataset with relformer synth$")


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_file(self, rng, tmp_path, value):
        path = tmp_path / "x.trkf"
        matrix = rng.normal(size=(6, 4)).astype(np.float32)
        matrix[3, 2] = value
        write_feature_file(str(path), matrix)
        with pytest.raises(DataError, match=f"^{path}: feature values must be finite"):
            read_feature_file(str(path))

    def test_empty_matrix_reads_back(self, tmp_path):
        path = tmp_path / "x.trkf"
        write_feature_file(str(path), np.zeros((0, 3), dtype=np.float32))
        assert read_feature_file(str(path)).shape == (0, 3)

    @pytest.mark.parametrize("edit,message", [
        (lambda raw: raw[:15], "not a TRKF feature file"),
        (lambda raw: raw[:-4], f"size {16 + 5 * 3 * 4 - 4} != expected {16 + 5 * 3 * 4} for 5x3"),
        (lambda raw: raw + b"\0", f"size {16 + 5 * 3 * 4 + 1} != expected {16 + 5 * 3 * 4}"),
    ], ids=["short_header", "short_payload", "long_payload"])
    def test_bad_size_names_the_file(self, rng, tmp_path, edit, message):
        path = tmp_path / "x.trkf"
        write_feature_file(str(path), rng.normal(size=(5, 3)))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            read_feature_file(str(path))

    @pytest.mark.parametrize("make", [lambda path: path.mkdir(), lambda path: None],
                             ids=["directory", "missing"])
    def test_unreadable_path_names_the_file(self, tmp_path, make):
        path = tmp_path / "x.trkf"
        make(path)
        with pytest.raises(DataError, match=f"^{path}: cannot read feature file"):
            read_feature_file(str(path))

    def test_payload_is_read_in_one_copy(self, rng, tmp_path):
        """The reader's peak is the returned matrix, not the file's bytes and
        a copy of them."""
        path = tmp_path / "x.trkf"
        write_feature_file(str(path), rng.normal(size=(2000, 256)))
        payload = 2000 * 256 * 4
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            matrix = read_feature_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (2000, 256)
        assert peak - start < 1.5 * payload


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

    def test_force_replaces_only_the_files_the_layout_owns(self, toy_dataset, tmp_path):
        samples, vocab = toy_dataset
        target, fresh = tmp_path / "ds", tmp_path / "fresh"
        save_dataset(str(target), samples, vocab)
        (target / "notes.txt").write_text("kept")
        (target / "video_notes.txt").write_text("kept too")
        save_dataset(str(target), samples[:2], vocab, force=True)
        save_dataset(str(fresh), samples[:2], vocab)
        names = sorted(os.listdir(fresh))
        assert sorted(os.listdir(target)) == sorted(names + ["notes.txt", "video_notes.txt"])
        for name in names:
            assert (target / name).read_bytes() == (fresh / name).read_bytes(), name
        assert (target / "notes.txt").read_text() == "kept"
        assert len(load_dataset(str(target))[0]) == 2

    def test_gt_objects_carry_no_features_or_probs(self, toy_dataset, tmp_path):
        """GT entries are box tracks, and each feature file holds its
        tracklets' rows only."""
        samples, vocab = toy_dataset
        save_dataset(str(tmp_path / "ds"), samples, vocab)
        for sample in samples:
            doc = json.loads((tmp_path / "ds" / f"video_{sample.video_id}.json").read_text())
            assert doc["gt_objects"]
            assert all(set(g) == {"id", "start", "end", "category"} for g in doc["gt_objects"])
            rows = read_feature_file(str(tmp_path / "ds" / f"video_{sample.video_id}.trkf"))
            assert len(rows) == sum(t.length for t in sample.tracklets)
        loaded, _ = load_dataset(str(tmp_path / "ds"))
        assert all(type(g) is GtObject for s in loaded for g in s.gt_objects)

    def test_older_layout_with_gt_feature_rows_asks_to_regenerate(self, toy_dataset,
                                                                  tmp_path):
        """Older layouts gave each GT object a ``features`` reference to rows
        after the tracklets' rows."""
        samples, vocab = toy_dataset
        save_dataset(str(tmp_path), samples, vocab)
        stem = f"video_{samples[0].video_id}"
        doc = json.loads((tmp_path / f"{stem}.json").read_text())
        doc["gt_objects"][0]["features"] = f"{stem}.trkf#0"
        (tmp_path / f"{stem}.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match=older_layout_message("gt_objects[0]", "features",
                                                                 f"{stem}.json")):
            load_dataset(str(tmp_path))

    def test_layout_without_box_files_asks_to_regenerate(self, toy_dataset, tmp_path):
        """Datasets written before the box files held each entry's boxes as
        a JSON list and each tracklet's first feature row as a reference,
        and had no ``.trkb`` files: the layout check comes before any matrix
        file is opened."""
        samples, vocab = toy_dataset
        save_dataset(str(tmp_path), samples, vocab)
        for sample in samples:
            stem = f"video_{sample.video_id}"
            doc = json.loads((tmp_path / f"{stem}.json").read_text())
            first = np.cumsum([0] + [t.length for t in sample.tracklets]).tolist()
            for entry, t, row in zip(doc["tracklets"], sample.tracklets, first):
                entry.update(boxes=t.boxes.tolist(), features=f"{stem}.trkf#{row}")
            for entry, g in zip(doc["gt_objects"], sample.gt_objects):
                entry["boxes"] = g.boxes.tolist()
            (tmp_path / f"{stem}.json").write_text(json.dumps(doc))
            (tmp_path / f"{stem}.trkb").unlink()
        name = f"video_{samples[0].video_id}.json"
        with pytest.raises(DataError, match=older_layout_message("tracklets[0]", "features",
                                                                 name)):
            load_dataset(str(tmp_path))


# The synth fields of the benchmark's three workloads (perfbench/workloads.py).
WORKLOAD_SHAPES = {
    "ref_train": dict(objects_min=3, objects_max=4, distractors=4),
    "dense_eval": dict(objects_min=9, objects_max=10, distractors=6, max_relations=120),
    "long_tracks": dict(frame_count=240, objects_min=4, objects_max=5, distractors=8),
}


class TestBoxFileRoundTrip:
    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES.values(), ids=list(WORKLOAD_SHAPES))
    def test_loaded_samples_are_bit_identical_views_of_one_box_matrix(self, tmp_path,
                                                                      shape):
        """Boxes, appearance, probs, slots and relations come back with every
        bit. Each video's boxes are views of the one matrix its box file
        holds, and its tracklets' appearance of its feature file's: entry k
        takes rows first[k]:first[k + 1], tracklets first, so the views tile
        each matrix in entry order with no overlap and no gap."""
        samples, vocab = synth_generate(SynthConfig(videos=2, d_a=8, **shape), seed=29)
        save_dataset(str(tmp_path), samples, vocab)
        loaded, _ = load_dataset(str(tmp_path))
        assert [s.video_id for s in loaded] == [s.video_id for s in samples]
        for a, b in zip(samples, loaded):
            assert b.frame_count == a.frame_count
            tracks_a, tracks_b = a.tracklets + a.gt_objects, b.tracklets + b.gt_objects
            assert [(type(t), t.id, t.category) for t in tracks_b] == [
                (type(t), t.id, t.category) for t in tracks_a]
            for ta, tb in zip(tracks_a, tracks_b):
                assert (ta.slot.start.hex(), ta.slot.end.hex()) == (
                    tb.slot.start.hex(), tb.slot.end.hex())
                assert tb.boxes.dtype == np.float64
                assert tb.boxes.tobytes() == ta.boxes.tobytes()
            for ta, tb in zip(a.tracklets, b.tracklets):
                assert tb.appearance.tobytes() == ta.appearance.tobytes()
                assert tb.probs.tobytes() == ta.probs.tobytes()
            assert [(r.subject_gt_id, r.object_gt_id, r.predicate, r.slot.start.hex(),
                     r.slot.end.hex()) for r in b.gt_relations] == [
                (r.subject_gt_id, r.object_gt_id, r.predicate, r.slot.start.hex(),
                 r.slot.end.hex()) for r in a.gt_relations]

            first = np.cumsum([0] + [t.slot.frame_length(b.frame_count)
                                     for t in tracks_b]).tolist()
            for suffix, kind, views in ((".trkb", BOXES, [t.boxes for t in tracks_b]),
                                        (".trkf", FEATURES, [t.appearance
                                                             for t in b.tracklets])):
                matrix = read_matrix_file(str(tmp_path / f"video_{b.video_id}{suffix}"), kind)
                assert len(matrix) == first[len(views)]
                base = views[0].base
                assert base is not None and base.size == matrix.size
                start, row_bytes = base.__array_interface__["data"][0], matrix[0].nbytes
                for k, view in enumerate(views):
                    assert view.base is base and view.flags.c_contiguous
                    assert view.__array_interface__["data"][0] == start + first[k] * row_bytes
                    assert len(view) == first[k + 1] - first[k]
                    assert view.tobytes() == matrix[first[k]:first[k + 1]].tobytes()

    def test_video_json_holds_no_box_values(self, toy_dataset, tmp_path):
        """Nor any row reference: each entry's rows follow from its place."""
        samples, vocab = toy_dataset
        save_dataset(str(tmp_path), samples, vocab)
        for sample in samples:
            doc = json.loads((tmp_path / f"video_{sample.video_id}.json").read_text())
            assert not any({"features", "boxes"} & set(e)
                           for e in doc["tracklets"] + doc["gt_objects"])

    def test_box_payload_is_read_in_one_copy(self, rng, tmp_path):
        path = str(tmp_path / "x.trkb")
        write_matrix_file(path, rng.uniform(size=(50_000, 4)), BOXES)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            matrix = read_matrix_file(path, BOXES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (50_000, 4) and matrix.dtype == np.float64
        assert peak - start < 1.5 * matrix.nbytes


def set_box(ds, row, box):
    """Overwrite row ``row`` of video v0's box file."""
    path = str(Path(ds) / "video_v0.trkb")
    boxes = read_matrix_file(path, BOXES)
    boxes[row] = box
    write_matrix_file(path, boxes, BOXES)


class TestValidation:
    def _write_minimal(self, tmp_path, mutate=None):
        """One video of 10 frames: tracklet 3 and GT object 0 on frames 0-1,
        so the feature file holds 2 rows and the box file 4: rows 0-1 for
        the tracklet, 2-3 for the GT object, and 2 more for each GT object
        ``mutate`` adds."""
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "vocab.json").write_text(json.dumps(
            {"objects": ["a", "b"], "predicates": ["p"]}))
        doc = {
            "video_id": "v0", "frame_count": 10,
            "tracklets": [{
                "id": 3, "start": 0.0, "end": 0.2, "category": 0,
                "probs": [1.0, 0.0]}],
            "gt_objects": [{
                "id": 0, "start": 0.0, "end": 0.2, "category": 0}],
            "gt_relations": [],
        }
        if mutate:
            mutate(doc)
        write_feature_file(str(ds / "video_v0.trkf"),
                           np.zeros((2, 3), dtype=np.float32))
        write_matrix_file(str(ds / "video_v0.trkb"),
                          np.tile([0.1, 0.1, 0.2, 0.2], (2 + 2 * len(doc["gt_objects"]), 1)),
                          BOXES)
        (ds / "video_v0.json").write_text(json.dumps(doc))
        return str(ds)

    def test_valid_minimal_loads(self, tmp_path):
        samples, _ = load_dataset(self._write_minimal(tmp_path))
        assert len(samples) == 1
        assert samples[0].tracklets[0].id == 3

    @pytest.mark.parametrize("vocab, entry", [
        ({"objects": [["a"]], "predicates": ["p"]}, 'objects entry 0 must be a string, got ["a"]'),
        ({"objects": ["a", {"b": 1}], "predicates": ["p"]},
         'objects entry 1 must be a string, got {"b": 1}'),
        ({"objects": ["a", "b"], "predicates": [1, 2]},
         "predicates entry 0 must be a string, got 1"),
    ])
    def test_vocab_names_must_be_strings(self, tmp_path, vocab, entry):
        path = self._write_minimal(tmp_path)
        (tmp_path / "ds" / "vocab.json").write_text(json.dumps(vocab))
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == f"{os.path.join(path, 'vocab.json')}: {entry}"

    @pytest.mark.parametrize("video_id", ["v1", "../escaped", "", 0])
    def test_video_id_must_match_the_file_name(self, tmp_path, video_id):
        path = self._write_minimal(tmp_path, lambda doc: doc.update(video_id=video_id))
        with pytest.raises(DataError, match=f"^video_v0.json: video_id {video_id!r} does not "
                                            "match the file name"):
            load_dataset(path)

    def test_two_files_cannot_share_a_video_id(self, tmp_path):
        ds = Path(self._write_minimal(tmp_path))
        (ds / "video_v1.json").write_bytes((ds / "video_v0.json").read_bytes())
        with pytest.raises(DataError, match="^video_v1.json: video_id 'v0' does not match"):
            load_dataset(str(ds))

    def test_inverted_box_names_tracklet_id(self, tmp_path):
        path = self._write_minimal(tmp_path)
        set_box(path, 0, [0.3, 0.1, 0.2, 0.2])
        with pytest.raises(DataError, match=r"tracklets\[0\].*tracklet 3"):
            load_dataset(path)

    def test_missing_field_names_file_and_field(self, tmp_path):
        def drop(doc):
            del doc["tracklets"][0]["category"]
        path = self._write_minimal(tmp_path, drop)
        with pytest.raises(DataError, match="video_v0.json.*category"):
            load_dataset(path)

    def test_predicate_outside_vocab(self, tmp_path):
        def add_rel(doc):
            doc["gt_objects"].append(dict(doc["gt_objects"][0], id=1))
            doc["gt_relations"].append(
                {"subject": 0, "object": 1, "predicate": 5, "start": 0.0, "end": 0.2})
        path = self._write_minimal(tmp_path, add_rel)
        with pytest.raises(DataError, match="predicate 5 outside vocab"):
            load_dataset(path)

    def test_negative_predicate_names_file_and_relation(self, tmp_path):
        def add_rel(doc):
            doc["gt_objects"].append(dict(doc["gt_objects"][0], id=1))
            doc["gt_relations"].append(
                {"subject": 0, "object": 1, "predicate": -1, "start": 0.0, "end": 0.2})
        path = self._write_minimal(tmp_path, add_rel)
        with pytest.raises(DataError, match=(r"^video_v0.json: gt_relations\[0\]: "
                                             "invalid predicate id -1$")):
            load_dataset(path)

    def test_relation_outside_its_objects_names_file_video_and_relation(self, tmp_path):
        """The GT objects cover frames 0-1 of 10; a relation on frames 5-9
        could never be matched."""
        def add_rel(doc):
            doc["gt_objects"].append(dict(doc["gt_objects"][0], id=1))
            doc["gt_relations"].append(
                {"subject": 0, "object": 1, "predicate": 0, "start": 0.5, "end": 1.0})
        path = self._write_minimal(tmp_path, add_rel)
        with pytest.raises(DataError, match=(r"^video_v0.json: video v0: gt_relations\[0\]: "
                                             r"slot \(0.5, 1.0\) does not overlap its subject "
                                             r"0's slot \(0.0, 0.2\)$")):
            load_dataset(path)

    @pytest.mark.parametrize("field,value", [("frame_count", "ten"), ("frame_count", 10.5),
                                             ("predicate", "0"), ("predicate", True),
                                             ("category", 0.0)])
    def test_non_integer_field_names_file_and_field(self, tmp_path, field, value):
        def edit(doc):
            doc["gt_objects"].append(dict(doc["gt_objects"][0], id=1))
            doc["gt_relations"].append(
                {"subject": 0, "object": 1, "predicate": 0, "start": 0.0, "end": 0.2})
            target = {"frame_count": doc, "predicate": doc["gt_relations"][0],
                      "category": doc["tracklets"][0]}[field]
            target[field] = value
        path = self._write_minimal(tmp_path, edit)
        with pytest.raises(DataError, match=f"video_v0.json.*'{field}' must be an integer"):
            load_dataset(path)

    @pytest.mark.parametrize("name", ["vocab.json", "video_v0.json"])
    def test_non_utf8_json_names_the_file(self, tmp_path, name):
        path = self._write_minimal(tmp_path)
        target = os.path.join(path, name)
        with open(target, "rb") as f:
            raw = f.read()
        with open(target, "wb") as f:
            f.write(raw.replace(b'"', b'"\xff', 1))
        with pytest.raises(DataError, match=f"{name}: invalid JSON"):
            load_dataset(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc, ds: doc["tracklets"][0].update(start="zero"),
         r"^video_v0.json: tracklets\[0\]: field 'start' must be a number"),
        (lambda doc, ds: doc["gt_relations"].append(
            {"subject": 0, "object": 1, "predicate": 0, "start": None, "end": 0.2}),
         r"^video_v0.json: gt_relations\[0\]: field 'start' must be a number"),
        (lambda doc, ds: doc.update(tracklets=5),
         "^video_v0.json: field 'tracklets' must be a list"),
        (lambda doc, ds: doc["tracklets"].__setitem__(0, 7),
         r"^video_v0.json: tracklets\[0\]: must be a JSON object"),
        (lambda doc, ds: (ds / "video_v0.trkb").write_bytes(
            (ds / "video_v0.trkb").read_bytes()[:-8]),
         r"video_v0.trkb: size 136 != expected 144 for 4x4$"),
        (lambda doc, ds: doc["tracklets"][0].update(probs=["a", "b"]),
         r"^video_v0.json: tracklets\[0\]: field 'probs' must be an array"),
        (lambda doc, ds: doc["tracklets"][0].update(probs=[float("nan"), 1.0]),
         r"^video_v0.json: tracklets\[0\]: tracklet \d+: probs must be a finite probability"),
        (lambda doc, ds: set_box(ds, 0, [0.1, 0.1, np.inf, 0.2]),
         r"video_v0.trkb: box values must be finite \(found NaN or infinity\)$"),
        (lambda doc, ds: set_box(ds, 3, [np.nan, 0.1, 0.2, 0.2]),
         r"video_v0.trkb: box values must be finite \(found NaN or infinity\)$"),
        (lambda doc, ds: (ds / "video_zz.json").mkdir(), "video_zz.json: cannot read"),
    ], ids=["track_start_string", "relation_start_null", "tracklets_not_a_list",
            "track_not_an_object", "ragged_boxes", "probs_strings",
            "probs_nan", "boxes_inf", "gt_boxes_nan", "directory"])
    def test_malformed_video_json_names_file_and_field(self, tmp_path, edit, message):
        ds = Path(self._write_minimal(tmp_path))
        doc = json.loads((ds / "video_v0.json").read_text())
        edit(doc, ds)
        (ds / "video_v0.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match=message):
            load_dataset(str(ds))

    def test_list_boxes_ask_to_regenerate_the_dataset(self, tmp_path):
        """Datasets written before the box files held boxes as JSON lists."""
        def old_layout(doc):
            doc["gt_objects"][0]["boxes"] = [[0.1, 0.1, 0.2, 0.2], [0.1, 0.1, 0.2, 0.2]]
        path = self._write_minimal(tmp_path, old_layout)
        with pytest.raises(DataError, match=older_layout_message("gt_objects[0]", "boxes")):
            load_dataset(path)

    @pytest.mark.parametrize("key,field,ref", [
        ("tracklets", "features", "video_v0.trkf#0"),
        ("tracklets", "boxes", "video_v0.trkb#0"),
        ("gt_objects", "boxes", "video_v0.trkb#2"),
    ], ids=["tracklet_features", "tracklet_boxes", "gt_boxes"])
    def test_row_references_ask_to_regenerate_the_dataset(self, tmp_path, key, field, ref):
        """The layout before this one, with the same matrix files, named
        each entry's first row in its JSON entry."""
        path = self._write_minimal(tmp_path, lambda doc: doc[key][0].update({field: ref}))
        with pytest.raises(DataError, match=older_layout_message(f"{key}[0]", field)):
            load_dataset(path)

    @pytest.mark.parametrize("suffix,kind,rows", [(".trkf", FEATURES, 2), (".trkb", BOXES, 4)],
                             ids=["feature_file", "box_file"])
    @pytest.mark.parametrize("extra", [1, -1], ids=["one_more", "one_fewer"])
    def test_file_rows_must_equal_the_frames_its_entries_cover(self, tmp_path, suffix,
                                                               kind, rows, extra):
        """Entry k's rows follow from the entries before it, so a row too
        many or too few would shift or cut some entry's rows unseen."""
        ds = Path(self._write_minimal(tmp_path))
        path = ds / f"video_v0{suffix}"
        write_matrix_file(str(path), np.full((rows + extra, kind.cols or 3), 0.1), kind)
        with pytest.raises(DataError, match=(
                rf"^{re.escape(str(path))}: holds {rows + extra} rows, but its entries "
                rf"cover {rows}$")):
            load_dataset(str(ds))

    @pytest.mark.parametrize("edit,message", [
        (lambda raw: b"TRKF" + raw[4:], "not a TRKB box file"),
        (lambda raw: raw + b"\0" * 8, "size 152 != expected 144 for 4x4"),
        (lambda raw: raw[:-1], "size 143 != expected 144 for 4x4"),
    ], ids=["feature_magic", "long_payload", "short_payload"])
    def test_bad_box_file_names_the_file(self, tmp_path, edit, message):
        path = Path(self._write_minimal(tmp_path))
        box_file = path / "video_v0.trkb"
        box_file.write_bytes(edit(box_file.read_bytes()))
        with pytest.raises(DataError, match=f"^{re.escape(str(box_file))}: {message}$"):
            load_dataset(str(path))

    def test_missing_box_file_names_the_file(self, tmp_path):
        path = Path(self._write_minimal(tmp_path))
        (path / "video_v0.trkb").unlink()
        with pytest.raises(DataError, match=f"^{re.escape(str(path / 'video_v0.trkb'))}: "
                                            "cannot read box file"):
            load_dataset(str(path))

    def test_box_file_needs_four_columns(self, tmp_path):
        path = Path(self._write_minimal(tmp_path))
        write_matrix_file(str(path / "video_v0.trkb"), np.full((4, 3), 0.1), BOXES)
        with pytest.raises(DataError, match="video_v0.trkb: box rows must have 4 values, "
                                            "got 3$"):
            load_dataset(str(path))

    def test_box_outside_the_unit_square_names_the_gt_object(self, tmp_path):
        path = self._write_minimal(tmp_path)
        set_box(path, 3, [0.1, 0.1, 1.5, 0.2])
        with pytest.raises(DataError, match=(r"^video_v0.json: gt_objects\[0\]: gt object 0: "
                                             "box coordinates must be finite and lie in")):
            load_dataset(path)

    @pytest.mark.parametrize("frame_count", [MAX_FRAME_COUNT + 1, 10 ** 9, 1, 0, -5])
    def test_frame_count_out_of_bounds_names_file_and_field(self, tmp_path, frame_count):
        path = self._write_minimal(tmp_path, lambda doc: doc.update(frame_count=frame_count))
        with pytest.raises(DataError, match=(
                rf"^video_v0.json: frame_count must lie in \[2, {MAX_FRAME_COUNT}\], "
                rf"got {frame_count}$")):
            load_dataset(path)

    def test_largest_frame_count_loads(self, tmp_path):
        """At 2**21 frames the two-frame slots still name their frames."""
        def longest(doc):
            doc["frame_count"] = MAX_FRAME_COUNT
            for entry in doc["tracklets"] + doc["gt_objects"]:
                entry.update(start=(MAX_FRAME_COUNT - 2) / MAX_FRAME_COUNT, end=1.0)
        [sample], _ = load_dataset(self._write_minimal(tmp_path, longest))
        assert sample.tracklets[0].slot.frame_span(MAX_FRAME_COUNT) == (
            MAX_FRAME_COUNT - 2, MAX_FRAME_COUNT)
