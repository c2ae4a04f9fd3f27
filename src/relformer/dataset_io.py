"""Dataset directory reader/writer.

Layout:
  vocab.json                {"objects": [...], "predicates": [...]}
  video_<id>.json           one per video (see below)
  video_<id>.trkf           the video's feature matrix
  video_<id>.trkb           the video's box matrix

A video JSON holds {video_id, frame_count, tracklets, gt_objects,
gt_relations}, and its video_id is the <id> of its file name. Each tracklet
entry is {id, start, end, category, probs}; gt_objects entries are {id,
start, end, category}: GT objects carry no features or probs. gt_relations
entries are {subject, object, predicate, start, end}.

An entry's rows follow from its place: one per frame of its slot
(``frame_length``), tracklets first, then the GT objects, so entry k takes
rows first[k]:first[k + 1] of the running sum. The feature file holds the
tracklets' rows, the box file the tracklets' and then the GT objects'. A
file whose row count is not the sum its entries cover is a ``DataError``
naming the file. An entry with a ``features`` or ``boxes`` field, a row
reference or a list of boxes, was written by an older layout and is a
``DataError`` that asks for the dataset to be regenerated; the reader
checks that before it opens either file, since the oldest layouts have no
box file. Each video's two files are read once, and every array of a loaded
sample is a view of its video's matrix, so loading parses no box or feature
value from JSON.

Both files are little-endian row-major matrices with a 16-byte header: a
4-byte magic, uint32 rows, uint32 cols, 4 reserved zero bytes. Feature files
("TRKF") hold float32 values, box files ("TRKB") hold float64 (x1, y1, x2,
y2) rows, so every box keeps all its bits. One reader, ``read_matrix_file``,
checks the magic and the file size against the header and reads the payload
straight into the returned array, with no second copy. A NaN or infinite
value is a ``DataError`` naming the file, so no command runs on it;
``read_feature_file`` also serves ``train --embeddings``.

All JSON this package writes is canonical: sorted keys, compact separators,
floats via repr (shortest round-trip), trailing newline. Identical data
produces identical bytes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .data import (GtObject, GtRelation, TimeSlot, Tracklet, VideoSample, Vocab, all_finite,
                   check_frame_count)
from .errors import DataError

HEADER_BYTES = 16


class MatrixKind(NamedTuple):
    magic: bytes
    dtype: str
    what: str               # names the kind in errors
    cols: int | None = None  # the column count every file of the kind has, if fixed


FEATURES = MatrixKind(b"TRKF", "<f4", "feature")
BOXES = MatrixKind(b"TRKB", "<f8", "box", cols=4)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


@contextmanager
def _named(where: str):
    """Prefix ``where`` to the message of a ``DataError`` raised inside."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def write_matrix_file(path: str, matrix: np.ndarray, kind: MatrixKind) -> None:
    arr = np.ascontiguousarray(matrix, dtype=kind.dtype)
    if arr.ndim != 2:
        raise DataError(f"{path}: {kind.what} matrix must be 2-d, got {arr.shape}")
    rows, cols = arr.shape
    header = kind.magic + np.array([rows, cols, 0], dtype="<u4").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.tobytes())


def read_matrix_file(path: str, kind: MatrixKind) -> np.ndarray:
    """The (rows, cols) matrix of a feature or box file, read straight into
    the returned array. A wrong magic, column count or size, or a NaN or
    infinite value, is a ``DataError`` naming the file."""
    what, itemsize = kind.what, np.dtype(kind.dtype).itemsize
    try:
        with open(path, "rb") as f:
            header = f.read(HEADER_BYTES)
            if len(header) < HEADER_BYTES or header[:4] != kind.magic:
                raise DataError(f"{path}: not a {kind.magic.decode()} {what} file")
            rows, cols, _ = (int(v) for v in np.frombuffer(header, dtype="<u4", offset=4))
            if kind.cols is not None and cols != kind.cols:
                raise DataError(f"{path}: {what} rows must have {kind.cols} values, got {cols}")
            size, expect = os.fstat(f.fileno()).st_size, HEADER_BYTES + rows * cols * itemsize
            if size != expect:
                raise DataError(f"{path}: size {size} != expected {expect} for {rows}x{cols}")
            matrix = np.fromfile(f, dtype=kind.dtype, count=rows * cols).reshape(rows, cols)
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what} file: {exc}") from exc
    if not all_finite(matrix):
        raise DataError(f"{path}: {what} values must be finite (found NaN or infinity)")
    return matrix


def write_feature_file(path: str, matrix: np.ndarray) -> None:
    write_matrix_file(path, matrix, FEATURES)


def read_feature_file(path: str) -> np.ndarray:
    """The (rows, cols) float32 matrix of a TRKF file (``read_matrix_file``)."""
    return read_matrix_file(path, FEATURES)


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise DataError(f"{where}: must be a JSON object, got {obj!r}")
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    return obj[key]


def _require_list(obj: dict, key: str, where: str) -> list:
    value = _require(obj, key, where)
    if not isinstance(value, list):
        raise DataError(f"{where}: field {key!r} must be a list, got {value!r}")
    return value


def _require_number(obj: dict, key: str, where: str) -> int | float:
    value = _require(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{where}: field {key!r} must be a number, got {value!r}")
    return value


def _require_array(obj: dict, key: str, where: str) -> np.ndarray:
    """A float64 array from a list of JSON numbers. ``Tracklet`` rejects NaN
    and infinities."""
    try:
        arr = np.asarray(_require(obj, key, where))
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise DataError(f"{where}: field {key!r} must be an array of numbers")
    return arr.astype(np.float64, copy=False)


def _require_int(obj: dict, key: str, where: str) -> int:
    value = _require(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return value


def _gt_object_to_json(g: GtObject) -> dict:
    return {"id": g.id, "start": g.slot.start, "end": g.slot.end, "category": g.category}


def _track_to_json(t: Tracklet) -> dict:
    return {**_gt_object_to_json(t), "probs": [float(v) for v in t.probs]}


def save_dataset(directory: str, samples: list[VideoSample], vocab: Vocab,
                 force: bool = False) -> None:
    """Write the layout above. ``force`` lets a non-empty ``directory`` be used,
    removing the layout's files first and leaving any other file alone."""
    os.makedirs(directory, exist_ok=True)
    existing = [p for p in os.listdir(directory) if not p.startswith(".")]
    if existing and not force:
        raise DataError(f"{directory}: not empty (use force to overwrite)")
    for name in existing:
        if name == "vocab.json" or (name.startswith("video_")
                                    and name.endswith((".json", ".trkf", ".trkb"))):
            os.remove(os.path.join(directory, name))
    with open(os.path.join(directory, "vocab.json"), "w", encoding="utf-8") as f:
        f.write(canonical_json({"objects": list(vocab.objects),
                                "predicates": list(vocab.predicates)}))
    for sample in samples:
        stem = f"video_{sample.video_id}"
        tracks = sample.tracklets + sample.gt_objects
        doc = {"video_id": sample.video_id, "frame_count": sample.frame_count,
               "tracklets": [_track_to_json(t) for t in sample.tracklets],
               "gt_objects": [_gt_object_to_json(g) for g in sample.gt_objects],
               "gt_relations": [{"subject": rel.subject_gt_id, "object": rel.object_gt_id,
                                 "predicate": rel.predicate,
                                 "start": rel.slot.start, "end": rel.slot.end}
                                for rel in sample.gt_relations]}
        features = (np.concatenate([t.appearance for t in sample.tracklets])
                    if sample.tracklets else np.zeros((0, 1), dtype=np.float32))
        boxes = np.concatenate([t.boxes for t in tracks]) if tracks else np.zeros((0, 4))
        write_feature_file(os.path.join(directory, f"{stem}.trkf"), features)
        write_matrix_file(os.path.join(directory, f"{stem}.trkb"), boxes, BOXES)
        with open(os.path.join(directory, f"{stem}.json"), "w", encoding="utf-8") as f:
            f.write(canonical_json(doc))


def _entry_fields(entry: dict, where: str, tracklet: bool) -> dict:
    """The fields of a tracklet or GT entry, less its rows. A ``features``
    or ``boxes`` field, a row reference or a list of boxes, is the mark of
    an older layout."""
    start, end = (_require_number(entry, key, where) for key in ("start", "end"))
    for key in ("features", "boxes"):
        if key in entry:
            raise DataError(f"{where}: field {key!r} belongs to a dataset layout that is no "
                            "longer read; regenerate the dataset with relformer synth")
    fields = {key: _require_int(entry, key, where) for key in ("id", "category")}
    if tracklet:
        fields["probs"] = _require_array(entry, "probs", where)
    with _named(where):
        fields["slot"] = TimeSlot(start, end)
    return fields


def _read_covered_rows(path: str, kind: MatrixKind, rows: int) -> np.ndarray:
    """The matrix of ``path``, which must hold ``rows`` rows: the frames its
    entries cover."""
    matrix = read_matrix_file(path, kind)
    if len(matrix) != rows:
        raise DataError(f"{path}: holds {len(matrix)} rows, but its entries cover {rows}")
    return matrix


def load_dataset(directory: str) -> tuple[list[VideoSample], Vocab]:
    """Read and validate a dataset directory. Videos sort by video_id."""
    vocab_path = os.path.join(directory, "vocab.json")
    try:
        with open(vocab_path, encoding="utf-8") as f:
            vocab_doc = json.load(f)
    except OSError as exc:
        raise DataError(f"{vocab_path}: cannot read: {exc}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise DataError(f"{vocab_path}: invalid JSON: {exc}") from exc
    objects = _require_list(vocab_doc, "objects", "vocab.json")
    predicates = _require_list(vocab_doc, "predicates", "vocab.json")
    with _named(vocab_path):
        vocab = Vocab(objects=objects, predicates=predicates)

    samples = []
    names = sorted(p for p in os.listdir(directory)
                   if p.startswith("video_") and p.endswith(".json"))
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as exc:  # e.g. a directory with a video file's name
            raise DataError(f"{path}: cannot read: {exc}") from exc
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
        samples.append(_sample_from_json(doc, directory, name, vocab))
    samples.sort(key=lambda s: s.video_id)
    return samples, vocab


def _sample_from_json(doc: dict, directory: str, name: str, vocab: Vocab) -> VideoSample:
    video_id = _require(doc, "video_id", name)
    if video_id != name[len("video_"):-len(".json")]:
        raise DataError(f"{name}: video_id {video_id!r} does not match the file name")
    frame_count = _require_int(doc, "frame_count", name)
    with _named(name):  # before any slot's rows are counted by it
        check_frame_count(frame_count)

    # Each entry's fields less its rows, parsed before either matrix file is
    # opened: a dataset of an older layout may have no box file.
    entries = [(f"{name}: {key}[{i}]", entry) for key in ("tracklets", "gt_objects")
               for i, entry in enumerate(_require_list(doc, key, name))]
    n = len(doc["tracklets"])
    fields = [_entry_fields(entry, where, k < n) for k, (where, entry) in enumerate(entries)]
    # Entry k's rows are first[k]:first[k + 1], tracklets first.
    first = [0, *accumulate(f["slot"].frame_length(frame_count) for f in fields)]
    stem = os.path.join(directory, f"video_{video_id}")
    features = _read_covered_rows(f"{stem}.trkf", FEATURES, first[n])
    boxes = _read_covered_rows(f"{stem}.trkb", BOXES, first[-1])

    tracklets, gt_objects = [], []
    for k, ((where, _), f) in enumerate(zip(entries, fields)):
        rows = slice(first[k], first[k + 1])
        with _named(where):
            obj = (Tracklet(**f, boxes=boxes[rows], appearance=features[rows]) if k < n
                   else GtObject(**f, boxes=boxes[rows]))
        if obj.category >= len(vocab.objects):
            raise DataError(f"{where}: category {obj.category} outside vocab")
        if k < n and len(obj.probs) != len(vocab.objects):
            raise DataError(f"{where}: probs length {len(obj.probs)} != "
                            f"|object vocab| {len(vocab.objects)}")
        (tracklets if k < n else gt_objects).append(obj)

    relations = []
    for i, entry in enumerate(_require_list(doc, "gt_relations", name)):
        where = f"{name}: gt_relations[{i}]"
        subject, object_, predicate = (_require_int(entry, key, where)
                                       for key in ("subject", "object", "predicate"))
        start, end = (_require_number(entry, key, where) for key in ("start", "end"))
        if predicate >= len(vocab.predicates):  # GtRelation rejects negative ids
            raise DataError(f"{where}: predicate {predicate} outside vocab")
        with _named(where):
            relations.append(GtRelation(
                subject_gt_id=subject, object_gt_id=object_, predicate=predicate,
                slot=TimeSlot(start, end)))

    with _named(name):
        return VideoSample(video_id=video_id, frame_count=frame_count,
                           tracklets=tracklets, gt_objects=gt_objects,
                           gt_relations=relations)
