"""Dataset directory reader/writer.

Layout:
  vocab.json                {"objects": [...], "predicates": [...]}
  video_<id>.json           one per video (see below)
  video_<id>.trkf           feature matrix file referenced by the JSON

A video JSON holds {video_id, frame_count, tracklets, gt_objects,
gt_relations}, and its video_id is the <id> of its file name. Each tracklet
entry is {id, start, end, category, probs, boxes, features}; ``features`` is
"video_<id>.trkf#<row>", pointing at consecutive rows of the video's own
feature file, which holds the tracklets' rows only. A reference naming any
other file, such as a path out of the dataset directory, is a ``DataError``
naming the JSON file and the field; each video's feature file is read once.
gt_objects entries are {id, start, end, category, boxes}: GT objects carry
no features or probs, and the GT ``features`` references of older files are
ignored. gt_relations entries are {subject, object, predicate, start, end}.

Feature files are little-endian float32 matrices, row-major, with a 16-byte
header: magic "TRKF", uint32 rows, uint32 cols, 4 reserved zero bytes.
``read_feature_file`` checks the file size against the header and reads the
payload straight into the returned float32 array, with no second copy. A NaN
or infinite value is a ``DataError`` naming the file, so no command runs on
it; the reader serves both the datasets and ``train --embeddings``.

All JSON this package writes is canonical: sorted keys, compact separators,
floats via repr (shortest round-trip), trailing newline. Identical data
produces identical bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .data import GtObject, GtRelation, TimeSlot, Tracklet, VideoSample, Vocab, all_finite
from .errors import DataError

TRKF_MAGIC = b"TRKF"
TRKF_HEADER_BYTES = 16


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def write_feature_file(path: str, matrix: np.ndarray) -> None:
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise DataError(f"{path}: feature matrix must be 2-d, got {arr.shape}")
    rows, cols = arr.shape
    header = TRKF_MAGIC + np.array([rows, cols, 0], dtype="<u4").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.tobytes())


def read_feature_file(path: str) -> np.ndarray:
    """The (rows, cols) float32 matrix of a TRKF file, read straight into the
    returned array. A wrong magic or size, or a NaN or infinite value, is a
    ``DataError`` naming the file."""
    try:
        with open(path, "rb") as f:
            header = f.read(TRKF_HEADER_BYTES)
            if len(header) < TRKF_HEADER_BYTES or header[:4] != TRKF_MAGIC:
                raise DataError(f"{path}: not a TRKF feature file")
            rows, cols, _ = (int(v) for v in np.frombuffer(header, dtype="<u4", offset=4))
            size, expect = os.fstat(f.fileno()).st_size, TRKF_HEADER_BYTES + rows * cols * 4
            if size != expect:
                raise DataError(f"{path}: size {size} != expected {expect} for {rows}x{cols}")
            matrix = np.fromfile(f, dtype="<f4", count=rows * cols).reshape(rows, cols)
    except OSError as exc:
        raise DataError(f"{path}: cannot read feature file: {exc}") from exc
    if not all_finite(matrix):
        raise DataError(f"{path}: feature values must be finite (found NaN or infinity)")
    return matrix


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
    """A float64 array from a (nested) list of JSON numbers. ``Tracklet``
    rejects NaN and infinities."""
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
    return {"id": g.id, "start": g.slot.start, "end": g.slot.end, "category": g.category,
            "boxes": [[float(v) for v in row] for row in g.boxes]}


def _track_to_json(t: Tracklet, feature_ref: str) -> dict:
    return {**_gt_object_to_json(t), "features": feature_ref,
            "probs": [float(v) for v in t.probs]}


def _gt_fields(obj: dict, where: str) -> dict:
    """The GtObject fields of a GT or tracklet entry, slot as start and end."""
    fields = {key: _require_number(obj, key, where) for key in ("start", "end")}
    fields.update((key, _require_int(obj, key, where)) for key in ("id", "category"))
    fields["boxes"] = _require_array(obj, "boxes", where)
    if fields["boxes"].ndim != 2 or fields["boxes"].shape[1] != 4:
        raise DataError(f"{where}: boxes must be a list of 4-vectors")
    return fields


def _construct(cls, where: str, start, end, **fields):
    try:
        return cls(slot=TimeSlot(start, end), **fields)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def _track_from_json(obj: dict, features: np.ndarray, feature_file: str,
                     where: str) -> Tracklet:
    fields = _gt_fields(obj, where)
    ref = _require(obj, "features", where)
    try:
        file_name, row_str = ref.rsplit("#", 1)
        row = int(row_str)
    except (AttributeError, ValueError):
        raise DataError(f"{where}: bad features reference {ref!r}") from None
    if file_name != feature_file:
        raise DataError(f"{where}: features reference {ref!r} must name this video's "
                        f"file {feature_file}")
    rows = len(fields["boxes"])
    if row < 0 or row + rows > len(features):
        raise DataError(f"{where}: features reference {ref!r} out of range")
    return _construct(Tracklet, where, **fields, appearance=features[row:row + rows],
                      probs=_require_array(obj, "probs", where))


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
                                    and name.endswith((".json", ".trkf"))):
            os.remove(os.path.join(directory, name))
    with open(os.path.join(directory, "vocab.json"), "w", encoding="utf-8") as f:
        f.write(canonical_json({"objects": list(vocab.objects),
                                "predicates": list(vocab.predicates)}))
    for sample in samples:
        feat_name = f"video_{sample.video_id}.trkf"
        rows: list[np.ndarray] = []
        offset = 0
        doc = {"video_id": sample.video_id, "frame_count": sample.frame_count,
               "tracklets": [], "gt_objects": list(map(_gt_object_to_json, sample.gt_objects)),
               "gt_relations": []}
        for t in sample.tracklets:
            doc["tracklets"].append(_track_to_json(t, f"{feat_name}#{offset}"))
            rows.append(t.appearance)
            offset += t.length
        for rel in sample.gt_relations:
            doc["gt_relations"].append({
                "subject": rel.subject_gt_id, "object": rel.object_gt_id,
                "predicate": rel.predicate,
                "start": rel.slot.start, "end": rel.slot.end})
        if rows:
            matrix = np.concatenate(rows, axis=0)
        else:
            matrix = np.zeros((0, 1), dtype=np.float32)
        write_feature_file(os.path.join(directory, feat_name), matrix)
        with open(os.path.join(directory, f"video_{sample.video_id}.json"),
                  "w", encoding="utf-8") as f:
            f.write(canonical_json(doc))


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
    try:
        vocab = Vocab(objects=objects, predicates=predicates)
    except DataError as exc:
        raise DataError(f"{vocab_path}: {exc}") from None

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

    feature_file = f"video_{video_id}.trkf"
    features = (read_feature_file(os.path.join(directory, feature_file))
                if _require_list(doc, "tracklets", name) else None)

    def objects(key: str, parse) -> list:
        out = []
        for i, entry in enumerate(_require_list(doc, key, name)):
            where = f"{name}: {key}[{i}]"
            obj = parse(entry, where)
            if obj.category >= len(vocab.objects):
                raise DataError(f"{where}: category {obj.category} outside vocab")
            out.append(obj)
        return out

    def tracklet(entry: dict, where: str) -> Tracklet:
        track = _track_from_json(entry, features, feature_file, where)
        if len(track.probs) != len(vocab.objects):
            raise DataError(f"{where}: probs length {len(track.probs)} != "
                            f"|object vocab| {len(vocab.objects)}")
        return track

    def gt_object(entry: dict, where: str) -> GtObject:
        return _construct(GtObject, where, **_gt_fields(entry, where))

    relations = []
    for i, entry in enumerate(_require_list(doc, "gt_relations", name)):
        where = f"{name}: gt_relations[{i}]"
        subject, object_, predicate = (_require_int(entry, key, where)
                                       for key in ("subject", "object", "predicate"))
        start, end = (_require_number(entry, key, where) for key in ("start", "end"))
        if predicate >= len(vocab.predicates):  # GtRelation rejects negative ids
            raise DataError(f"{where}: predicate {predicate} outside vocab")
        try:
            relations.append(GtRelation(
                subject_gt_id=subject, object_gt_id=object_, predicate=predicate,
                slot=TimeSlot(start, end)))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None

    tracklets, gt_objects = objects("tracklets", tracklet), objects("gt_objects", gt_object)
    try:
        return VideoSample(video_id=video_id, frame_count=frame_count,
                           tracklets=tracklets, gt_objects=gt_objects,
                           gt_relations=relations)
    except DataError as exc:
        raise DataError(f"{name}: {exc}") from None
