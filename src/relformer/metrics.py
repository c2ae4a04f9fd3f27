"""Relation detection / tagging metrics and tracklet mAP.

Detection matching: a prediction matches a GT relation when the predicate
and both participant categories agree and both linked tracklets, restricted
to the prediction's slot, reach vIoU >= threshold against the GT tracklets
restricted to the GT relation's slot. Matching is greedy in score order with
each GT used at most once: a prediction claims the first unused GT relation,
in index order, that it matches.

Matching is mask-first. Per video, one (predictions, GT relations) boolean
mask marks the pairs whose predicate, subject category and object category
all agree; a prediction naming a tracklet the video does not have gets
category -1 and agrees with nothing. ``match_relation`` stays the one
per-pair rule and runs only on agreeing pairs, walked in GT index order. A
pair outside the mask would fail ``match_relation`` at its label check, so
skipping it changes no greedy choice; on dense scenes almost every pair
fails there.

AP is non-interpolated: the sum of precision at each hit divided by the GT
count; per-video AP/R@K are averaged over videos that have GT relations.
Tagging P@K ignores localization and counts distinct GT category triples in
the top K, divided by min(K, #predictions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Tracklet, VideoSample, compute_viou, restrict_track
from .errors import UsageError
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


def match_relation(pred: RelationTriplet, sample: VideoSample, gt_rel,
                   viou_threshold: float = 0.5) -> bool:
    """True iff the prediction localizes and labels the GT relation."""
    by_id = {t.id: t for t in sample.tracklets}
    sub = by_id.get(pred.subject_tracklet_id)
    obj = by_id.get(pred.object_tracklet_id)
    if sub is None or obj is None:
        return False
    gt_sub = sample.gt_object(gt_rel.subject_gt_id)
    gt_obj = sample.gt_object(gt_rel.object_gt_id)
    if pred.predicate != gt_rel.predicate:
        return False
    if sub.category != gt_sub.category or obj.category != gt_obj.category:
        return False
    for det, gt in ((sub, gt_sub), (obj, gt_obj)):
        det_part = restrict_track(det, pred.slot, sample.frame_count)
        gt_part = restrict_track(gt, gt_rel.slot, sample.frame_count)
        if det_part is None or gt_part is None:
            return False
        if compute_viou(det_part, gt_part, sample.frame_count) < viou_threshold:
            return False
    return True


def _sorted_preds(preds: list[RelationTriplet]) -> list[RelationTriplet]:
    return sorted(preds, key=lambda t: (-t.score, t.key()))


def _greedy_hits(preds: list[RelationTriplet], sample: VideoSample,
                 viou_threshold: float) -> list[bool]:
    """Per ranked prediction: did it claim a previously unclaimed GT relation."""
    gt_cats = {t.id: t.category for t in sample.gt_objects}
    det_cats = {t.id: t.category for t in sample.tracklets}
    gt_labels = np.array([(r.predicate, gt_cats[r.subject_gt_id], gt_cats[r.object_gt_id])
                          for r in sample.gt_relations], dtype=np.int64).reshape(-1, 3)
    pred_labels = np.array([(p.predicate, det_cats.get(p.subject_tracklet_id, -1),
                             det_cats.get(p.object_tracklet_id, -1)) for p in preds],
                           dtype=np.int64).reshape(-1, 3)
    agree = (pred_labels[:, None, :] == gt_labels[None, :, :]).all(axis=2)
    used = np.zeros(len(sample.gt_relations), dtype=bool)
    hits = []
    for pred, row in zip(preds, agree):
        hit = False
        for g in np.flatnonzero(row & ~used):
            if match_relation(pred, sample, sample.gt_relations[g], viou_threshold):
                used[g] = True
                hit = True
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
                  samples: list[VideoSample], viou_threshold: float = 0.5,
                  ks: tuple[int, ...] = (50, 100),
                  ) -> tuple[float, dict[int, float], dict[str, dict]]:
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
                  samples: list[VideoSample], ks: tuple[int, ...] = (1, 5, 10),
                  ) -> tuple[dict[int, float], dict[str, dict]]:
    """Tagging P@K over category triples, averaged over videos with GT."""
    precisions = {k: [] for k in ks}
    per_video = {}
    for sample in samples:
        if not sample.gt_relations:
            continue
        cats = {t.id: t.category for t in sample.gt_objects}
        gt_triples = {(cats[r.subject_gt_id], r.predicate, cats[r.object_gt_id])
                      for r in sample.gt_relations}
        det_cats = {t.id: t.category for t in sample.tracklets}
        preds = _sorted_preds(predictions.get(sample.video_id, []))
        triples = [(det_cats[p.subject_tracklet_id], p.predicate,
                    det_cats[p.object_tracklet_id]) for p in preds]
        entry = {}
        for k in ks:
            top = triples[:k]
            credited = set()
            for triple in top:
                if triple in gt_triples:
                    credited.add(triple)
            denom = min(k, len(preds))
            p = len(credited) / denom if denom else 0.0
            precisions[k].append(p)
            entry[f"p@{k}"] = p
        per_video[sample.video_id] = entry
    return ({k: float(np.mean(v)) if v else 0.0 for k, v in precisions.items()},
            per_video)


def tracklet_map(samples: list[VideoSample], viou_threshold: float = 0.5) -> float:
    """Detection-style tracklet mAP: per-category AP (confidence = max class
    probability, greedy best-vIoU matching within each video), averaged over
    categories present in the GT."""
    categories = sorted({t.category for s in samples for t in s.gt_objects})
    if not categories:
        return 0.0
    aps = []
    for cat in categories:
        dets = []
        n_gt = 0
        gt_pool: dict[str, list[Tracklet]] = {}
        for sample in samples:
            gts = sorted((t for t in sample.gt_objects if t.category == cat),
                         key=lambda t: t.id)
            gt_pool[sample.video_id] = gts
            n_gt += len(gts)
            for t in sample.tracklets:
                if t.category == cat and t.probs is not None:
                    dets.append((float(t.probs.max()), sample.video_id, t.id, t, sample))
        dets.sort(key=lambda d: (-d[0], d[1], d[2]))
        used: set[tuple[str, int]] = set()
        hits = []
        for _, vid, _, det, sample in dets:
            best_v, best_gt = -1.0, None
            for gt in gt_pool[vid]:
                if (vid, gt.id) in used:
                    continue
                v = compute_viou(det, gt, sample.frame_count)
                if v >= viou_threshold and v > best_v:
                    best_v, best_gt = v, gt
            if best_gt is not None:
                used.add((vid, best_gt.id))
                hits.append(True)
            else:
                hits.append(False)
        aps.append(_average_precision(hits, n_gt))
    return float(np.mean(aps))


def evaluate(predictions: dict[str, list[RelationTriplet]],
             samples: list[VideoSample], viou_threshold: float = 0.5,
             recall_ks: tuple[int, ...] = (50, 100),
             precision_ks: tuple[int, ...] = (1, 5, 10)) -> EvalReport:
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
