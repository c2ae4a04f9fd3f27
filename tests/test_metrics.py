import numpy as np
import pytest

from relformer import metrics
from relformer.data import GtRelation, TimeSlot, Tracklet, VideoSample
from relformer.head import RelationTriplet
from relformer.metrics import (_average_precision, reldet_scores, reltag_scores,
                               tracklet_map)

from oracles import (average_precision_oracle, greedy_hits_oracle,
                     precision_at_k_oracle)

FRAMES = 12
# Two disjoint boxes: a per-frame IoU is exactly 1 or 0, so every vIoU is a
# ratio of small integers and a vIoU of exactly 0.5 is reachable.
BOX_A = (0.1, 0.1, 0.3, 0.3)
BOX_B = (0.6, 0.6, 0.9, 0.9)


def slot(a: int, b: int) -> TimeSlot:
    return TimeSlot(a / FRAMES, b / FRAMES)


def track(tid, a, b, category, boxes=None, probs=None) -> Tracklet:
    n = b - a
    boxes = [BOX_A] * n if boxes is None else boxes
    return Tracklet(id=tid, slot=slot(a, b), boxes=np.array(boxes, dtype=float),
                    appearance=np.zeros((n, 2)), category=category, probs=probs)


def rank(preds):
    """Score order with ties broken by (predicate, subject, object)."""
    return sorted(preds, key=lambda p: (-p.score, p.predicate, p.subject_tracklet_id,
                                        p.object_tracklet_id))


def random_video(rng, video_id: str, with_preds: bool = True):
    """A small video drawn from few labels, slots and boxes, so that labels
    repeat across GT relations, many pairs agree on labels, some slots miss
    each other, and some vIoUs land exactly on 0.5."""
    spans = [(0, 4), (0, 8), (2, 6), (4, 12), (6, 12), (0, 12), (8, 12)]
    gts = []
    for gid in range(int(rng.integers(2, 5))):
        a, b = spans[rng.integers(len(spans))]
        boxes = [BOX_A if rng.random() < 0.8 else BOX_B for _ in range(b - a)]
        gts.append(track(gid, a, b, int(rng.integers(2)), boxes))
    tracklets = []
    for tid in range(int(rng.integers(2, 6))):
        if rng.random() < 0.7:
            src = gts[rng.integers(len(gts))]
            boxes = [box if rng.random() < 0.8 else (BOX_B if box[0] == BOX_A[0] else BOX_A)
                     for box in src.boxes.tolist()]
            a, b = src.slot.frame_span(FRAMES)
        else:
            a, b = spans[rng.integers(len(spans))]
            boxes = [BOX_A] * (b - a)
        tracklets.append(track(10 + tid, a, b, int(rng.integers(2)), boxes))
    rels = []
    for _ in range(int(rng.integers(1, 7))):
        s, o = rng.choice(len(gts), size=2, replace=False)
        a, b = spans[rng.integers(len(spans))]
        rels.append(GtRelation(subject_gt_id=int(s), object_gt_id=int(o),
                               predicate=int(rng.integers(2)), slot=slot(a, b)))
    sample = VideoSample(video_id=video_id, frame_count=FRAMES, tracklets=tracklets,
                         gt_objects=gts, gt_relations=rels)
    preds = []
    ids = [t.id for t in tracklets] + [99]  # 99 names no tracklet of the video
    for _ in range(int(rng.integers(0, 25)) if with_preds else 0):
        s, o = rng.choice(len(ids), size=2, replace=False)
        a, b = spans[rng.integers(len(spans))]
        preds.append(RelationTriplet(subject_tracklet_id=ids[s], object_tracklet_id=ids[o],
                                     predicate=int(rng.integers(2)),
                                     score=float(rng.choice([0.25, 0.5, 0.75, 0.9])),
                                     slot=slot(a, b)))
    return sample, preds


class TestAveragePrecision:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        hits = [bool(h) for h in rng.random(30) < 0.3]
        n_gt = sum(hits) + int(rng.integers(0, 4))
        if n_gt == 0:
            n_gt = 1
        assert _average_precision(hits, n_gt) == average_precision_oracle(hits) / n_gt

    def test_no_gt_scores_zero(self):
        assert _average_precision([True, False], 0) == 0.0

    def test_hits_at_the_top_score_one(self):
        assert _average_precision([True, True, False], 2) == 1.0


def one_relation_video(video_id="v"):
    """One GT relation (subject cat 0, object cat 1, predicate 0) whose two
    tracklets 1 and 2 localize it exactly; tracklet 3 is a wrong-category
    copy of the subject."""
    gts = [track(0, 0, 8, 0), track(1, 0, 8, 1)]
    tracklets = [track(1, 0, 8, 0), track(2, 0, 8, 1), track(3, 0, 8, 1)]
    rel = GtRelation(subject_gt_id=0, object_gt_id=1, predicate=0, slot=slot(0, 8))
    return VideoSample(video_id=video_id, frame_count=FRAMES, tracklets=tracklets,
                       gt_objects=gts, gt_relations=[rel])


def triplet(sub, obj, predicate, score, a=0, b=8):
    return RelationTriplet(subject_tracklet_id=sub, object_tracklet_id=obj,
                           predicate=predicate, score=score, slot=slot(a, b))


class TestRelDet:
    def test_score_ties_are_ranked_by_key(self):
        sample = one_relation_video()
        # Equal scores: key (0, 1, 2) ranks before (0, 3, 2), so the hit comes first.
        preds = [triplet(3, 2, 0, 0.5), triplet(1, 2, 0, 0.5)]
        mean_ap, recalls, per_video = reldet_scores({"v": preds}, [sample], ks=(1,))
        assert mean_ap == 1.0
        assert recalls == {1: 1.0}
        # Now the miss has the lower key: predicate 0 < 1 on an equal score.
        preds = [triplet(1, 2, 1, 0.5), triplet(1, 2, 0, 0.5)]
        sample_p1 = VideoSample(
            video_id="v", frame_count=FRAMES, tracklets=sample.tracklets,
            gt_objects=sample.gt_objects,
            gt_relations=[GtRelation(0, 1, predicate=1, slot=slot(0, 8))])
        mean_ap, recalls, _ = reldet_scores({"v": preds}, [sample_p1], ks=(1,))
        assert mean_ap == 1.0 / 2.0
        assert recalls == {1: 0.0}

    def test_video_with_gt_but_no_predictions_counts_as_zero(self):
        hit_video, miss_video = one_relation_video("a"), one_relation_video("b")
        preds = {"a": [triplet(1, 2, 0, 0.9)]}
        mean_ap, recalls, per_video = reldet_scores(preds, [hit_video, miss_video],
                                                    ks=(50,))
        assert mean_ap == 0.5
        assert recalls == {50: 0.5}
        assert per_video["b"] == {"ap": 0.0, "gt_relations": 1, "predictions": 0,
                                  "recall@50": 0.0}

    def test_duplicate_gt_labels_are_claimed_in_index_order(self):
        base = one_relation_video()
        rels = [GtRelation(0, 1, predicate=0, slot=slot(0, 8))] * 2
        sample = VideoSample(video_id="v", frame_count=FRAMES, tracklets=base.tracklets,
                             gt_objects=base.gt_objects, gt_relations=rels)
        preds = [triplet(1, 2, 0, 0.9), triplet(1, 2, 0, 0.8), triplet(1, 2, 0, 0.7)]
        _, recalls, per_video = reldet_scores({"v": preds}, [sample], ks=(1, 3))
        assert recalls == {1: 0.5, 3: 1.0}
        assert per_video["v"]["ap"] == 1.0

    def test_unknown_tracklet_ids_never_match(self):
        sample = one_relation_video()
        mean_ap, _, _ = reldet_scores({"v": [triplet(1, 77, 0, 0.9)]}, [sample])
        assert mean_ap == 0.0

    def test_viou_exactly_at_threshold_matches(self):
        gts = [track(0, 0, 4, 0), track(1, 0, 4, 1)]
        # The object tracklet covers 2 of the 4 GT frames: vIoU 2/4.
        tracklets = [track(1, 0, 4, 0), track(2, 0, 2, 1)]
        rel = GtRelation(0, 1, predicate=0, slot=slot(0, 4))
        sample = VideoSample(video_id="v", frame_count=FRAMES, tracklets=tracklets,
                             gt_objects=gts, gt_relations=[rel])
        pred = triplet(1, 2, 0, 0.9, 0, 6)
        assert reldet_scores({"v": [pred]}, [sample], viou_threshold=0.5)[0] == 1.0
        assert reldet_scores({"v": [pred]}, [sample], viou_threshold=0.51)[0] == 0.0

    def test_disjoint_prediction_slot_never_matches(self):
        sample = one_relation_video()
        assert reldet_scores({"v": [triplet(1, 2, 0, 0.9, 8, 12)]}, [sample])[0] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("threshold", [0.5, 0.3])
    def test_matches_greedy_oracle_on_random_videos(self, seed, threshold):
        rng = np.random.default_rng(seed)
        videos = [random_video(rng, f"v{i}", with_preds=i != 0) for i in range(6)]
        samples = [s for s, _ in videos]
        predictions = {s.video_id: p for s, p in videos}
        ks = (1, 5, 50)
        mean_ap, recalls, per_video = reldet_scores(predictions, samples, threshold, ks)
        want_aps, want_recalls = [], {k: [] for k in ks}
        for sample, preds in videos:
            n_gt = len(sample.gt_relations)
            hits = greedy_hits_oracle(rank(preds), sample, threshold)
            ap = average_precision_oracle(hits) / n_gt
            want_aps.append(ap)
            entry = per_video[sample.video_id]
            assert entry["ap"] == ap
            assert entry["predictions"] == len(preds)
            for k in ks:
                want_recalls[k].append(sum(hits[:k]) / n_gt)
                assert entry[f"recall@{k}"] == sum(hits[:k]) / n_gt
        assert mean_ap == pytest.approx(np.mean(want_aps), abs=1e-15)
        for k in ks:
            assert recalls[k] == pytest.approx(np.mean(want_recalls[k]), abs=1e-15)

    def test_generated_videos_reach_every_case(self):
        """The random videos above do exercise what they are meant to."""
        seen = {"duplicate_labels": False, "unknown_id": False,
                "disjoint_slot": False, "viou_at_threshold": False, "hit": False}
        for seed in range(8):
            rng = np.random.default_rng(seed)
            for i in range(6):
                sample, preds = random_video(rng, f"v{i}", with_preds=i != 0)
                cats = {t.id: t.category for t in sample.gt_objects}
                labels = [(r.predicate, cats[r.subject_gt_id], cats[r.object_gt_id])
                          for r in sample.gt_relations]
                seen["duplicate_labels"] |= len(set(labels)) < len(labels)
                ids = {t.id for t in sample.tracklets}
                seen["unknown_id"] |= any(p.subject_tracklet_id not in ids
                                          or p.object_tracklet_id not in ids for p in preds)
                seen["disjoint_slot"] |= any(p.slot.intersect(r.slot) is None
                                             for p in preds for r in sample.gt_relations)
                hits = greedy_hits_oracle(rank(preds), sample, 0.5)
                seen["hit"] |= any(hits)
                seen["viou_at_threshold"] |= (
                    greedy_hits_oracle(rank(preds), sample, 0.5 + 1e-9) != hits)
        assert all(seen.values()), seen

    def test_match_relation_runs_only_on_label_agreeing_pairs(self, monkeypatch):
        """The greedy loop calls match_relation through the module global and
        only where predicate and both categories agree."""
        calls = []
        original = metrics.match_relation

        def spy(pred, sample, gt_rel, viou_threshold=0.5):
            det = {t.id: t.category for t in sample.tracklets}
            gt = {t.id: t.category for t in sample.gt_objects}
            calls.append((pred.predicate, det.get(pred.subject_tracklet_id),
                          det.get(pred.object_tracklet_id)) ==
                         (gt_rel.predicate, gt[gt_rel.subject_gt_id],
                          gt[gt_rel.object_gt_id]))
            return original(pred, sample, gt_rel, viou_threshold)

        monkeypatch.setattr(metrics, "match_relation", spy)
        rng = np.random.default_rng(3)
        videos = [random_video(rng, f"v{i}") for i in range(6)]
        reldet_scores({s.video_id: p for s, p in videos}, [s for s, _ in videos])
        assert calls and all(calls)


class TestRelTag:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_precision_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        videos = []
        for i in range(5):
            sample, preds = random_video(rng, f"v{i}", with_preds=i != 0)
            ids = {t.id for t in sample.tracklets}
            preds = [p for p in preds if p.subject_tracklet_id in ids
                     and p.object_tracklet_id in ids]
            videos.append((sample, preds))
        ks = (1, 5, 10)
        precisions, per_video = reltag_scores({s.video_id: p for s, p in videos},
                                              [s for s, _ in videos], ks)
        want = {k: [] for k in ks}
        for sample, preds in videos:
            gt_cats = {t.id: t.category for t in sample.gt_objects}
            det_cats = {t.id: t.category for t in sample.tracklets}
            gt_triples = [(gt_cats[r.subject_gt_id], r.predicate, gt_cats[r.object_gt_id])
                          for r in sample.gt_relations]
            ranked = [(det_cats[p.subject_tracklet_id], p.predicate,
                       det_cats[p.object_tracklet_id]) for p in rank(preds)]
            for k in ks:
                p_at_k = precision_at_k_oracle(ranked, gt_triples, k)
                assert per_video[sample.video_id][f"p@{k}"] == p_at_k
                want[k].append(p_at_k)
        for k in ks:
            assert precisions[k] == pytest.approx(np.mean(want[k]), abs=1e-15)

    def test_duplicate_triples_are_credited_once(self):
        sample = one_relation_video()
        preds = [triplet(1, 2, 0, 0.9), triplet(1, 2, 0, 0.8, 0, 4)]
        precisions, _ = reltag_scores({"v": preds}, [sample], ks=(1, 2))
        assert precisions == {1: 1.0, 2: 0.5}

    def test_video_without_predictions_counts_as_zero(self):
        precisions, per_video = reltag_scores({}, [one_relation_video()], ks=(1,))
        assert precisions == {1: 0.0}
        assert per_video["v"] == {"p@1": 0.0}


def probs(category, confidence, n=3):
    p = np.full(n, (1.0 - confidence) / (n - 1))
    p[category] = confidence
    return p


def video(video_id, tracklets, gts):
    return VideoSample(video_id=video_id, frame_count=FRAMES, tracklets=tracklets,
                       gt_objects=gts)


class TestTrackletMap:
    def test_exact_detection_scores_one(self):
        sample = video("v", [track(1, 0, 8, 0, probs=probs(0, 0.9))], [track(0, 0, 8, 0)])
        assert tracklet_map([sample]) == 1.0

    def test_detection_below_threshold_scores_zero(self):
        # 2 shared frames over a 6-frame union.
        sample = video("v", [track(1, 2, 6, 0, probs=probs(0, 0.9))], [track(0, 0, 4, 0)])
        assert tracklet_map([sample]) == 0.0
        assert tracklet_map([sample], viou_threshold=1.0 / 3.0) == 1.0

    def test_second_detection_of_one_gt_is_a_false_positive(self):
        dets = [track(1, 0, 8, 0, probs=probs(0, 0.6)), track(2, 0, 8, 0, probs=probs(0, 0.9))]
        sample = video("v", dets, [track(0, 0, 8, 0), track(5, 8, 12, 0)])
        # Hits [True, False] over two GT objects.
        assert tracklet_map([sample]) == 0.5

    def test_confident_detection_takes_its_best_viou_gt(self):
        gts = [track(0, 0, 6, 0), track(1, 0, 8, 0)]
        dets = [track(1, 0, 8, 0, probs=probs(0, 0.9)),   # vIoU 0.75 / 1.0
                track(2, 0, 6, 0, probs=probs(0, 0.6))]   # vIoU 1.0 / 0.75
        assert tracklet_map([video("v", dets, gts)]) == 1.0

    def test_detections_only_match_gt_of_their_own_video(self):
        a = video("a", [track(1, 0, 8, 0, probs=probs(0, 0.9))], [])
        b = video("b", [], [track(0, 0, 8, 0)])
        assert tracklet_map([a, b]) == 0.0

    def test_averages_over_gt_categories_only(self):
        dets = [track(1, 0, 8, 0, probs=probs(0, 0.9)), track(2, 0, 8, 2, probs=probs(2, 0.9)),
                track(3, 0, 8, 1, probs=probs(1, 0.9), boxes=[BOX_B] * 8)]
        gts = [track(0, 0, 8, 0), track(4, 0, 8, 1)]
        # Category 0 scores 1, category 1 misses, category 2 has no GT.
        assert tracklet_map([video("v", dets, gts)]) == 0.5

    def test_detections_without_probs_are_ignored(self):
        sample = video("v", [track(1, 0, 8, 0)], [track(0, 0, 8, 0)])
        assert tracklet_map([sample]) == 0.0

    def test_no_gt_objects_scores_zero(self):
        sample = video("v", [track(1, 0, 8, 0, probs=probs(0, 0.9))], [])
        assert tracklet_map([sample]) == 0.0
