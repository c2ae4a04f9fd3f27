"""Relation detection / tagging metrics and tracklet mAP.

Detection matching: a prediction matches a GT relation when the predicate
and both participant categories agree and both linked tracklets, restricted
to the prediction's slot, reach vIoU >= threshold against the GT objects
restricted to the GT relation's slot. Matching is greedy in score order with
each GT used at most once: a prediction claims the first unused GT relation,
in index order, that it matches.

One rule gives the labels: ``_labels`` derives each GT relation's and each
prediction's (predicate, subject category, object category) once per video
for both detection and tagging. A prediction naming a tracklet the video
does not have gets category -1, which no category takes (``GtObject``
rejects negative ones), so it agrees with nothing.

Matching is mask-first. Per video, one (predictions, GT relations) boolean
mask marks the pairs whose three labels agree; on dense scenes almost every
pair is outside it. One ``data.pair_vious`` pass then gives the subject and
object vIoU of every pair in the mask, and ``match_relation`` reads that
pass on the pairs the greedy walk reaches, in GT index order. Tracklet mAP
reads one pass per video over its same-category (tracklet, GT object) pairs.

AP is non-interpolated: the sum of precision at each hit divided by the GT
count; per-video AP/R@K are averaged over videos that have GT relations.
Tagging P@K ignores localization and counts distinct GT category triples in
the top K, divided by min(K, #predictions); a prediction naming an unknown
tracklet counts as a miss.

No function here has a default vIoU threshold or K list: the run config's
``eval`` section (``config.EvalConfig``) is their one source, and the CLI
passes its ``viou_threshold``, ``recall_ks`` and ``precision_ks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import VideoSample, pair_vious, restrict_track, tracklet_gt_vious
from .head import RelationTriplet


@dataclass
class EvalReport:
    reldet_map: float
    recall: dict[int, float]
    precision: dict[int, float]
    tracklet_map: float
    per_video: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"reldet_map": self.reldet_map, "tracklet_map": self.tracklet_map,
               "per_video": self.per_video}
        for k, v in sorted(self.recall.items()):
            out[f"recall@{k}"] = v
        for k, v in sorted(self.precision.items()):
            out[f"p@{k}"] = v
        return out


def _labels(preds: list[RelationTriplet], sample: VideoSample,
            ) -> tuple[np.ndarray, np.ndarray]:
    """(predictions, 3) and (GT relations, 3) int arrays of (predicate,
    subject category, object category); a prediction naming a tracklet the
    video does not have gets category -1."""
    gt_cats = {t.id: t.category for t in sample.gt_objects}
    det_cats = {t.id: t.category for t in sample.tracklets}
    pred_labels = np.array([(p.predicate, det_cats.get(p.subject_tracklet_id, -1),
                             det_cats.get(p.object_tracklet_id, -1)) for p in preds],
                           dtype=np.int64).reshape(-1, 3)
    gt_labels = np.array([(r.predicate, gt_cats[r.subject_gt_id], gt_cats[r.object_gt_id])
                          for r in sample.gt_relations], dtype=np.int64).reshape(-1, 3)
    return pred_labels, gt_labels


def match_relation(vious: np.ndarray, viou_threshold: float) -> bool:
    """True iff a prediction localizes a GT relation: its subject and its
    object vIoU (``vious``) both reach ``viou_threshold``. Each is taken
    between the prediction's tracklet restricted to the prediction's slot and
    the GT object restricted to the GT relation's slot.

    It checks no labels: ``_greedy_hits`` calls it only on pairs whose
    predicate and categories agree, with their row of the video's one
    ``_localization_vious`` pass."""
    return bool(vious.min() >= viou_threshold)


def _localization_vious(preds: list[RelationTriplet], sample: VideoSample,
                        agree: np.ndarray) -> np.ndarray:
    """(predictions, GT relations, 2): the subject and object vIoU of each
    pair that ``agree`` marks, from one ``pair_vious`` pass over the video.
    A pair where a slot misses its track reads 0 on both sides, as do pairs
    outside the mask."""
    frame_count, rels = sample.frame_count, sample.gt_relations
    tracks = sample.tracklets + sample.gt_objects
    det = {t.id: k for k, t in enumerate(sample.tracklets)}
    gt = {t.id: len(det) + k for k, t in enumerate(sample.gt_objects)}

    def sides(slot, *ks):  # per role: (track index, f0, f1), None if slot misses the track
        spans = [restrict_track(tracks[k], slot, frame_count) for k in ks]
        return [span and (k, *span) for k, span in zip(ks, spans)]

    p, g = np.nonzero(agree)
    pred_sides = {i: sides(preds[i].slot, det[preds[i].subject_tracklet_id],
                           det[preds[i].object_tracklet_id]) for i in set(p.tolist())}
    rel_sides = {j: sides(rels[j].slot, gt[rels[j].subject_gt_id], gt[rels[j].object_gt_id])
                 for j in set(g.tolist())}
    kept = [(i, j) for i, j in zip(p.tolist(), g.tolist()) if all(pred_sides[i] + rel_sides[j])]
    pairs = [a + b for i, j in kept for a, b in zip(pred_sides[i], rel_sides[j])]
    vious = np.zeros(agree.shape + (2,))
    vious[[i for i, _ in kept], [j for _, j in kept]] = pair_vious(
        tracks, pairs, frame_count).reshape(-1, 2)
    return vious


def _sorted_preds(preds: list[RelationTriplet]) -> list[RelationTriplet]:
    return sorted(preds, key=lambda t: (-t.score, t.key()))


def _greedy_hits(preds: list[RelationTriplet], sample: VideoSample,
                 viou_threshold: float) -> list[bool]:
    """Per ranked prediction: did it claim a previously unclaimed GT relation."""
    pred_labels, gt_labels = _labels(preds, sample)
    agree = (pred_labels[:, None, :] == gt_labels[None, :, :]).all(axis=2)
    vious = _localization_vious(preds, sample, agree)
    used = np.zeros(len(sample.gt_relations), dtype=bool)
    hits = []
    for row, loc in zip(agree, vious):
        hit = False
        for g in np.flatnonzero(row & ~used):
            if match_relation(loc[g], viou_threshold):
                used[g] = hit = True
                break
        hits.append(hit)
    return hits


def _average_precision(hits: list[bool], n_gt: int) -> float:
    if n_gt == 0:
        return 0.0
    score = 0.0
    tp = 0
    for i, hit in enumerate(hits):
        if hit:
            tp += 1
            score += tp / (i + 1)
    return score / n_gt


def reldet_scores(predictions: dict[str, list[RelationTriplet]],
                  samples: list[VideoSample], viou_threshold: float,
                  ks: tuple[int, ...]) -> tuple[float, dict[int, float], dict[str, dict]]:
    """(mAP, {K: R@K}, per-video breakdown), averaged over videos with GT."""
    aps, recalls = [], {k: [] for k in ks}
    per_video = {}
    for sample in samples:
        n_gt = len(sample.gt_relations)
        if n_gt == 0:
            continue
        preds = _sorted_preds(predictions.get(sample.video_id, []))
        hits = _greedy_hits(preds, sample, viou_threshold)
        ap = _average_precision(hits, n_gt)
        aps.append(ap)
        entry = {"ap": ap, "gt_relations": n_gt, "predictions": len(preds)}
        for k in ks:
            r = sum(hits[:k]) / n_gt
            recalls[k].append(r)
            entry[f"recall@{k}"] = r
        per_video[sample.video_id] = entry
    if not aps:
        return 0.0, {k: 0.0 for k in ks}, per_video
    return (float(np.mean(aps)),
            {k: float(np.mean(v)) for k, v in recalls.items()},
            per_video)


def reltag_scores(predictions: dict[str, list[RelationTriplet]],
                  samples: list[VideoSample], ks: tuple[int, ...],
                  ) -> tuple[dict[int, float], dict[str, dict]]:
    """Tagging P@K over category triples, averaged over videos with GT."""
    precisions = {k: [] for k in ks}
    per_video = {}
    for sample in samples:
        if not sample.gt_relations:
            continue
        preds = _sorted_preds(predictions.get(sample.video_id, []))
        pred_labels, gt_labels = _labels(preds, sample)
        gt_triples = set(map(tuple, gt_labels.tolist()))
        triples = list(map(tuple, pred_labels.tolist()))
        entry = {}
        for k in ks:
            credited = {t for t in triples[:k] if t in gt_triples}
            denom = min(k, len(preds))
            p = len(credited) / denom if denom else 0.0
            precisions[k].append(p)
            entry[f"p@{k}"] = p
        per_video[sample.video_id] = entry
    return ({k: float(np.mean(v)) if v else 0.0 for k, v in precisions.items()},
            per_video)


def tracklet_map(samples: list[VideoSample], viou_threshold: float) -> float:
    """Detection-style tracklet mAP: per-category AP (confidence = max class
    probability; greedy matching within each video to the free GT object of
    best vIoU, ties to the lower id), averaged over categories present in the
    GT. Each video's same-category vIoUs come from one shared-frame pass."""
    categories = sorted({t.category for s in samples for t in s.gt_objects})
    if not categories:
        return 0.0
    vious = [tracklet_gt_vious(s, same_category=True) for s in samples]
    aps = []
    for cat in categories:
        dets = []
        n_gt = 0
        for sample, viou in zip(samples, vious):
            gts = [(g.id, j) for j, g in enumerate(sample.gt_objects) if g.category == cat]
            n_gt += len(gts)
            dets += [(float(t.probs.max()), sample.video_id, t.id, row, gts)
                     for t, row in zip(sample.tracklets, viou) if t.category == cat]
        dets.sort(key=lambda d: (-d[0], d[1], d[2]))
        used: set[tuple[str, int]] = set()
        hits = []
        for _, vid, _, row, gts in dets:
            free = [(-row[j], gid) for gid, j in gts
                    if (vid, gid) not in used and row[j] >= viou_threshold]
            if free:
                used.add((vid, min(free)[1]))
            hits.append(bool(free))
        aps.append(_average_precision(hits, n_gt))
    return float(np.mean(aps))


def evaluate(predictions: dict[str, list[RelationTriplet]],
             samples: list[VideoSample], viou_threshold: float,
             recall_ks: tuple[int, ...], precision_ks: tuple[int, ...]) -> EvalReport:
    reldet_map, recalls, det_breakdown = reldet_scores(
        predictions, samples, viou_threshold, recall_ks)
    precisions, tag_breakdown = reltag_scores(predictions, samples, precision_ks)
    per_video: dict[str, dict] = {}
    for vid, entry in det_breakdown.items():
        per_video.setdefault(vid, {}).update(entry)
    for vid, entry in tag_breakdown.items():
        per_video.setdefault(vid, {}).update(entry)
    return EvalReport(reldet_map=reldet_map, recall=recalls, precision=precisions,
                      tracklet_map=tracklet_map(samples, viou_threshold),
                      per_video=per_video)
