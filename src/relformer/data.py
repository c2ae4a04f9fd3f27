"""Tracklet and relation data types, vIoU, and ground-truth assignment.

Frame-index convention used everywhere: a normalized slot (s, e) over a
video with F frames covers the integer frames f0 = floor(s*F) up to, but
excluding, f1 = max(ceil(e*F), f0 + 1), so every valid slot covers at least
one frame, however narrow it is. A ``FRAME_GUARD`` of 1e-9 keeps exact frame
fractions (k / F) on the frame they name despite float rounding, and f0 is
clamped to the last frame of the span that holds the slot, so a slot that
starts a float ulp below that span's end keeps its last frame instead of
naming the frame past it. Three places apply this one rule:
``TimeSlot.frame_span`` (the span is the video), ``restrict_track`` (the
span is the track's) and the model's RoI pooling (``model._roi_frame_ranges``;
the span is the track's).

This module owns vIoU. Every caller (``assign_tracklets_to_gt``,
``metrics.tracklet_map`` and ``metrics.match_relation``) reads it from one
``pair_vious`` pass per video, which makes one ``box_iou`` call over the
frames that its pairs share; ``compute_viou`` reduces one pair's slice.

All types are immutable after construction; operations on distinct samples
are safe to run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DataError

FRAME_GUARD = 1e-9
# The largest frame count a video may have. (k / F) * F is within F * 2**-52 of
# k, which stays below FRAME_GUARD only while F < 1e-9 * 2**52 (about 4.5e6);
# 2**21 keeps a factor of two to spare. It also keeps the model's integer
# pooling keys, n * (F + 2)**2 over n tracklets, inside int64 for any video
# of fewer than 2**20 tracklets.
MAX_FRAME_COUNT = 2 ** 21


@dataclass(frozen=True)
class TimeSlot:
    """Normalized (start, end) fractions of the video length, 0 <= s < e <= 1."""

    start: float
    end: float

    def __post_init__(self):
        if not (0.0 <= self.start < self.end <= 1.0):
            raise DataError(f"invalid time slot ({self.start}, {self.end})")

    def frame_span(self, frame_count: int) -> tuple[int, int]:
        """(first_frame, last_frame_exclusive) covered by this slot: at least
        one frame of the video, by the module's frame rule."""
        first = min(int(math.floor(self.start * frame_count + FRAME_GUARD)), frame_count - 1)
        return first, max(int(math.ceil(self.end * frame_count - FRAME_GUARD)), first + 1)

    def frame_length(self, frame_count: int) -> int:
        a, b = self.frame_span(frame_count)
        return b - a

    def intersect(self, other: "TimeSlot") -> "TimeSlot | None":
        s = max(self.start, other.start)
        e = min(self.end, other.end)
        return TimeSlot(s, e) if s < e else None


def check_frame_count(frame_count: int) -> None:
    """A ``DataError`` unless 2 <= ``frame_count`` <= ``MAX_FRAME_COUNT``."""
    if not 2 <= frame_count <= MAX_FRAME_COUNT:
        raise DataError(f"frame_count must lie in [2, {MAX_FRAME_COUNT}], got {frame_count}")


def all_finite(a: np.ndarray) -> bool:
    """True iff no value of ``a`` is NaN or infinite.

    min and max are NaN if any value is, and infinite if any value is; unlike
    ``np.isfinite(a).all()``, they allocate no array of ``a``'s size.
    """
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _validate_boxes(boxes: np.ndarray, label: str) -> None:
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise DataError(f"{label}: boxes must be (l, 4), got {boxes.shape}")
    # Every comparison with NaN is false, so the checks ask for the valid case.
    if not np.all((boxes >= 0.0) & (boxes <= 1.0)):
        raise DataError(f"{label}: box coordinates must be finite and lie in [0, 1]")
    if not (np.all(boxes[:, 0] < boxes[:, 2]) and np.all(boxes[:, 1] < boxes[:, 3])):
        raise DataError(f"{label}: boxes must satisfy x1<x2 and y1<y2")


@dataclass(frozen=True)
class GtObject:
    """One ground-truth object: a time slot, per-frame boxes and a category.

    GT objects carry no appearance features or class probabilities; they
    serve only vIoU assignment and evaluation.
    """

    id: int
    slot: TimeSlot
    boxes: np.ndarray          # (l, 4) float64, normalized xyxy
    category: int

    kind: ClassVar[str] = "gt object"

    def __post_init__(self):
        label = f"{self.kind} {self.id}"
        boxes = np.asarray(self.boxes, dtype=np.float64)
        object.__setattr__(self, "boxes", boxes)
        if len(boxes) < 2:
            raise DataError(f"{label}: needs at least 2 frames, got {len(boxes)}")
        _validate_boxes(boxes, label)
        if self.category < 0:
            raise DataError(f"{label}: category {self.category} outside vocab")

    @property
    def length(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class Tracklet(GtObject):
    """One detected trajectory: a GT object's fields plus per-frame
    appearance features and the per-category classification probabilities.

    ``appearance`` rows are stored as float32 (the on-disk dtype and the
    model's compute dtype) and are the only copy a run keeps; each forward
    pass stacks its video's rows as they are. Boxes and probs are float64,
    as all box and matching code is.
    """

    appearance: np.ndarray     # (l, d_a) float32
    probs: np.ndarray          # (|C_obj|,) float64, sums to 1

    kind: ClassVar[str] = "tracklet"

    def __post_init__(self):
        super().__post_init__()
        label = f"{self.kind} {self.id}"
        appearance = np.asarray(self.appearance, dtype=np.float32)
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "appearance", appearance)
        object.__setattr__(self, "probs", probs)
        if appearance.ndim != 2 or len(appearance) != self.length:
            raise DataError(
                f"{label}: appearance rows {appearance.shape} != boxes {self.length}")
        if probs.ndim != 1:
            raise DataError(f"{label}: probs must be a 1-d probability vector")
        if not (abs(float(probs.sum()) - 1.0) <= 1e-6 and np.all(probs >= 0.0)):
            raise DataError(f"{label}: probs must be a finite probability vector")


@dataclass(frozen=True)
class GtRelation:
    """Ground-truth triplet: subject/object GT-object ids, predicate, slot."""

    subject_gt_id: int
    object_gt_id: int
    predicate: int
    slot: TimeSlot

    def __post_init__(self):
        if self.subject_gt_id == self.object_gt_id:
            raise DataError("relation subject and object must differ")
        if self.predicate < 0:
            raise DataError(f"invalid predicate id {self.predicate}")


@dataclass(frozen=True)
class Vocab:
    """Object and predicate category names. No explicit background entry:
    the no-relation class is an extra logit slot in the relation head."""

    objects: tuple[str, ...]
    predicates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "predicates", tuple(self.predicates))
        for kind in ("objects", "predicates"):
            for k, name in enumerate(getattr(self, kind)):
                if not isinstance(name, str):
                    raise DataError(f"{kind} entry {k} must be a string, "
                                    f"got {json.dumps(name)}")
        if len(set(self.objects)) != len(self.objects):
            raise DataError("duplicate object category names")
        if len(set(self.predicates)) != len(self.predicates):
            raise DataError("duplicate predicate category names")
        if not self.objects or not self.predicates:
            raise DataError("vocab must have at least one object and one predicate")


@dataclass(frozen=True)
class VideoSample:
    """One video's detected tracklets, GT objects, and GT relations."""

    video_id: str
    frame_count: int
    tracklets: tuple[Tracklet, ...]
    gt_objects: tuple[GtObject, ...]
    gt_relations: tuple[GtRelation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "tracklets", tuple(self.tracklets))
        object.__setattr__(self, "gt_objects", tuple(self.gt_objects))
        object.__setattr__(self, "gt_relations", tuple(self.gt_relations))
        vid = f"video {self.video_id}"
        try:
            check_frame_count(self.frame_count)
        except DataError as exc:
            raise DataError(f"{vid}: {exc}") from None
        for group_name, group in (("tracklets", self.tracklets),
                                  ("gt_objects", self.gt_objects)):
            seen: set[int] = set()
            for t in group:
                if t.id in seen:
                    raise DataError(f"{vid}: duplicate id {t.id} in {group_name}")
                seen.add(t.id)
                if t.slot.frame_length(self.frame_count) != t.length:
                    raise DataError(
                        f"{vid}: {group_name} id {t.id}: slot covers "
                        f"{t.slot.frame_length(self.frame_count)} frames but has "
                        f"{t.length} boxes")
        gt_slots = {t.id: (t.slot.start, t.slot.end) for t in self.gt_objects}
        for k, rel in enumerate(self.gt_relations):
            start, end = rel.slot.start, rel.slot.end
            for role, rid in (("subject", rel.subject_gt_id), ("object", rel.object_gt_id)):
                if rid not in gt_slots:
                    raise DataError(f"{vid}: relation {role} id {rid} not in gt_objects")
                # No vIoU can localize a relation outside its object's slot, so
                # no prediction could ever match it, yet it would count in every
                # recall and AP. Two valid slots overlap iff each starts before
                # the other ends: TimeSlot.intersect's test, without a new slot.
                s, e = gt_slots[rid]
                if not (s < end and start < e):
                    raise DataError(
                        f"{vid}: gt_relations[{k}]: slot ({start}, {end}) does not "
                        f"overlap its {role} {rid}'s slot ({s}, {e})")


# ---------------------------------------------------------------------------
# vIoU
# ---------------------------------------------------------------------------


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of two (k, 4) xyxy box arrays."""
    ix1 = np.maximum(a[:, 0], b[:, 0])
    iy1 = np.maximum(a[:, 1], b[:, 1])
    ix2 = np.minimum(a[:, 2], b[:, 2])
    iy2 = np.minimum(a[:, 3], b[:, 3])
    iw = np.clip(ix2 - ix1, 0.0, None)
    ih = np.clip(iy2 - iy1, 0.0, None)
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def restrict_track(track, slot: TimeSlot, frame_count: int) -> tuple[int, int] | None:
    """The frame span (f0, f1) of ``track`` over ``slot``, None if the two
    slots do not overlap: the frames of their intersection by the module's
    frame rule, the span that holds it being the track's."""
    inter = track.slot.intersect(slot)
    if inter is None:
        return None
    t1 = track.slot.frame_span(frame_count)[1]
    f0, f1 = inter.frame_span(frame_count)
    return (t1 - 1, t1) if f0 >= t1 else (f0, f1)


def compute_viou(ious: np.ndarray, a: tuple[int, int], b: tuple[int, int]) -> float:
    """Voluminal IoU of two tracks over the frame spans ``a`` and ``b``: the
    per-frame box IoUs ``ious`` of the frames both spans cover, summed and
    divided by the number of frames in the spans' union."""
    return float(ious.sum() / (a[1] - a[0] + b[1] - b[0] - len(ious)))


def pair_vious(tracks, pairs, frame_count: int) -> np.ndarray:
    """vIoU of each pair (i, a0, a1, j, b0, b1): ``tracks[i]`` over the frame
    span (a0, a1) against ``tracks[j]`` over (b0, b1), each span inside its
    track's.

    One ``box_iou`` call covers every pair. It runs on the boxes of the frames
    each pair shares, gathered from one stack of the tracks' boxes, so memory
    follows the shared frames. ``compute_viou`` then reduces each pair's
    contiguous slice, which sums the same values in the same order as a
    ``box_iou`` call on that pair alone would.
    """
    if not pairs:
        return np.zeros(0)
    rows = np.array(pairs, dtype=np.int64)
    i, a0, a1, j, b0, b1 = rows.T
    first = np.array([t.slot.frame_span(frame_count)[0] for t in tracks])
    offset = np.cumsum([0] + [t.length for t in tracks])[:-1] - first
    boxes = np.concatenate([t.boxes for t in tracks])
    lo = np.maximum(a0, b0)
    shared = np.maximum(np.minimum(a1, b1) - lo, 0)
    ends = np.cumsum(shared)
    step = np.arange(ends[-1]) - np.repeat(ends - shared, shared)
    ious = box_iou(boxes[np.repeat(offset[i] + lo, shared) + step],
                   boxes[np.repeat(offset[j] + lo, shared) + step])
    return np.array([compute_viou(ious[end - n:end], (r[1], r[2]), (r[4], r[5]))
                     for end, n, r in zip(ends.tolist(), shared.tolist(), rows.tolist())])


def tracklet_gt_vious(sample: VideoSample, same_category: bool = False) -> np.ndarray:
    """(tracklets, GT objects) vIoU matrix of ``sample``, from one
    ``pair_vious`` pass. With ``same_category`` only pairs of one category
    are computed; the others read 0."""
    tracks = sample.tracklets + sample.gt_objects
    n = len(sample.tracklets)
    spans = [(k, *t.slot.frame_span(sample.frame_count)) for k, t in enumerate(tracks)]
    pairs = [a + b for a in spans[:n] for b in spans[n:]
             if not same_category or tracks[a[0]].category == tracks[b[0]].category]
    viou = np.zeros((n, len(tracks) - n))
    viou[[p[0] for p in pairs], [p[3] - n for p in pairs]] = pair_vious(
        tracks, pairs, sample.frame_count)
    return viou


# ---------------------------------------------------------------------------
# tracklet -> ground-truth assignment
# ---------------------------------------------------------------------------


def assign_tracklets_to_gt(sample: VideoSample, threshold: float) -> dict[int, list[int]]:
    """Assign detected tracklets to GT objects by vIoU.

    Two rules: (1) a tracklet joins its argmax-vIoU GT object when that vIoU
    clears ``threshold``; (2) every GT object additionally receives its own
    argmax-vIoU tracklet when that vIoU is positive and the tracklet is still
    unassigned (the low-quality-match rescue). Ties break toward the lower id.
    A tracklet is never assigned to two GT objects. Training passes the run
    config's ``eval.viou_threshold`` as ``threshold``.

    Returns gt_id -> sorted ids of the tracklets assigned to it.
    """
    tracklets = sample.tracklets
    gts = sample.gt_objects
    assigned: dict[int, int] = {}
    if not tracklets or not gts:
        return {g.id: [] for g in gts}

    viou = tracklet_gt_vious(sample)
    for t, row in zip(tracklets, viou):
        top = row.max()
        if top >= threshold:
            assigned[t.id] = min(g.id for g, v in zip(gts, row) if v == top)

    for g, column in zip(gts, viou.T):
        top = column.max()
        tid = min(t.id for t, v in zip(tracklets, column) if v == top)
        if top > 0.0 and tid not in assigned:
            assigned[tid] = g.id

    return {g.id: sorted(t for t, gid in assigned.items() if gid == g.id) for g in gts}
