import numpy as np
import pytest

from relformer.data import (MAX_FRAME_COUNT, GtObject, TimeSlot, restrict_track,
                            tracklet_gt_vious)
from relformer.errors import ConfigError
from relformer.synth import (MIN_SHARED_FRAMES, SynthConfig, derive_relations,
                             rule_approaching, synth_generate)

from oracles import synth_rule_checker


def noiseless_config(**kw):
    base = dict(videos=3, frame_count=24, object_categories=5, d_a=8,
                objects_min=3, objects_max=4, distractors=0, box_jitter=0.0,
                slot_trim_frames=0, prob_noise=0.0, feature_noise=0.0,
                max_relations=8)
    base.update(kw)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_zero_objects_rejected(self):
        with pytest.raises(ConfigError, match="objects_min"):
            SynthConfig(objects_min=0)

    def test_tiny_frame_count_rejected(self):
        with pytest.raises(ConfigError, match="frame_count"):
            SynthConfig(frame_count=0)

    def test_frame_count_above_the_video_bound_rejected(self):
        with pytest.raises(ConfigError, match=(rf"^synth.frame_count must lie in "
                                               rf"\[8, {MAX_FRAME_COUNT}\], got "
                                               rf"{MAX_FRAME_COUNT + 1}$")):
            SynthConfig(frame_count=MAX_FRAME_COUNT + 1)
        assert SynthConfig(frame_count=MAX_FRAME_COUNT).frame_count == MAX_FRAME_COUNT

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule"):
            SynthConfig(rules=("approaching", "orbiting"))


class TestNoiselessLimit:
    def test_detected_equal_gt_with_viou_one(self):
        samples, _ = synth_generate(noiseless_config(), seed=9)
        for sample in samples:
            assert len(sample.tracklets) == len(sample.gt_objects)
            viou = tracklet_gt_vious(sample)
            for i, (det, gt) in enumerate(zip(sample.tracklets, sample.gt_objects)):
                assert det.id == gt.id
                assert det.slot == gt.slot
                assert np.array_equal(det.boxes, gt.boxes)
                assert det.category == gt.category
                # Noiseless features repeat the category's prototype row.
                assert np.array_equal(det.appearance, np.repeat(det.appearance[:1], det.length, 0))
                assert viou[i, i] == 1.0
            # every relation's participants are recoverable via exact links
            det_index = {t.id: i for i, t in enumerate(sample.tracklets)}
            gt_index = {t.id: j for j, t in enumerate(sample.gt_objects)}
            for rel in sample.gt_relations:
                for gid in (rel.subject_gt_id, rel.object_gt_id):
                    assert viou[det_index[gid], gt_index[gid]] == 1.0

    def test_probs_are_exact_one_hot(self):
        samples, _ = synth_generate(noiseless_config(), seed=9)
        for t in samples[0].tracklets:
            assert t.probs.sum() == 1.0
            assert t.probs.max() == 1.0
            assert int(np.argmax(t.probs)) == t.category


class TestDeterminism:
    def test_same_seed_regenerates_identically(self):
        cfg = SynthConfig(videos=4, d_a=8, object_categories=5, objects_min=3,
                          objects_max=4, max_relations=8)
        a, va = synth_generate(cfg, seed=123)
        b, vb = synth_generate(cfg, seed=123)
        assert va == vb
        for sa, sb in zip(a, b):
            assert sa.video_id == sb.video_id
            assert sa.gt_relations == sb.gt_relations
            for ta, tb in zip(sa.tracklets, sb.tracklets):
                assert np.array_equal(ta.boxes, tb.boxes)
                assert np.array_equal(ta.appearance, tb.appearance)
                assert np.array_equal(ta.probs, tb.probs)

    def test_different_seeds_differ(self):
        cfg = noiseless_config(videos=1)
        a, _ = synth_generate(cfg, seed=1)
        b, _ = synth_generate(cfg, seed=2)
        assert not np.array_equal(a[0].gt_objects[0].boxes, b[0].gt_objects[0].boxes)


class TestRules:
    def _track(self, tid, boxes, frame_count):
        boxes = np.asarray(boxes, dtype=np.float64)
        return GtObject(id=tid, slot=TimeSlot(0.0, len(boxes) / frame_count),
                        boxes=boxes, category=0)

    def test_strictly_decreasing_distance_yields_approaching(self):
        # frames 0..10: B fixed, A marches toward it
        frame_count = 12
        n = 11
        fixed = np.tile([0.7, 0.45, 0.8, 0.55], (n, 1))
        moving = np.stack([
            np.linspace(0.1, 0.55, n), np.full(n, 0.45),
            np.linspace(0.2, 0.65, n), np.full(n, 0.55)], axis=1)
        a = self._track(0, moving, frame_count)
        b = self._track(1, fixed, frame_count)
        cfg = noiseless_config()
        relations = derive_relations(cfg, frame_count, [a, b])
        approaching = cfg.rules.index("approaching")
        assert any(r.subject_gt_id == 0 and r.object_gt_id == 1
                   and r.predicate == approaching for r in relations)
        assert rule_approaching(moving, fixed)
        assert synth_rule_checker("approaching", moving, fixed)

    def test_generated_relations_match_independent_rule_scan(self):
        cfg = SynthConfig(videos=6, d_a=8, object_categories=6, objects_min=3,
                          objects_max=5, max_relations=10)
        samples, vocab = synth_generate(cfg, seed=77)
        for sample in samples:
            found = set()
            for a in sample.gt_objects:
                for b in sample.gt_objects:
                    if a.id == b.id:
                        continue
                    inter = a.slot.intersect(b.slot)
                    if inter is None:
                        continue
                    lo, hi = inter.frame_span(sample.frame_count)
                    if hi - lo < MIN_SHARED_FRAMES:
                        continue
                    a0 = a.slot.frame_span(sample.frame_count)[0]
                    b0 = b.slot.frame_span(sample.frame_count)[0]
                    shared = (a.boxes[lo - a0:hi - a0], b.boxes[lo - b0:hi - b0])
                    for pred, name in enumerate(vocab.predicates):
                        if synth_rule_checker(name, *shared):
                            found.add((a.id, b.id, pred))
            got = {(r.subject_gt_id, r.object_gt_id, r.predicate)
                   for r in sample.gt_relations}
            assert got == found

    def test_relation_count_stays_in_window(self):
        cfg = SynthConfig(videos=8, d_a=8, object_categories=6, objects_min=3,
                          objects_max=5, min_relations=2, max_relations=9)
        samples, _ = synth_generate(cfg, seed=5)
        for sample in samples:
            assert 2 <= len(sample.gt_relations) <= 9

    def test_infeasible_window_raises_config_error(self):
        cfg = SynthConfig(videos=1, d_a=8, object_categories=6, objects_min=6,
                          objects_max=6, min_relations=0, max_relations=0)
        with pytest.raises(ConfigError, match="relation-count window"):
            synth_generate(cfg, seed=5)

    def test_relation_slots_are_frame_aligned_intersections(self):
        samples, _ = synth_generate(noiseless_config(), seed=31)
        for sample in samples:
            gts = {t.id: t for t in sample.gt_objects}
            for rel in sample.gt_relations:
                sub = gts[rel.subject_gt_id]
                obj = gts[rel.object_gt_id]
                inter = sub.slot.intersect(obj.slot)
                assert rel.slot.frame_span(sample.frame_count) == \
                    inter.frame_span(sample.frame_count)

    @pytest.mark.parametrize("seed", range(6))
    def test_relation_slots_overlap_both_objects(self, seed):
        """Default-noise scenes, dense and sparse, over several seeds: every
        relation keeps frames on both of its objects, so ``VideoSample``'s
        check never trips on synth output."""
        for cfg in (SynthConfig(videos=4, d_a=8), SynthConfig(
                videos=2, d_a=8, object_categories=8, objects_min=9, objects_max=10,
                distractors=6, max_relations=120)):
            samples, _ = synth_generate(cfg, seed=seed)
            for sample in samples:
                gts = {t.id: t for t in sample.gt_objects}
                for rel in sample.gt_relations:
                    for gid in (rel.subject_gt_id, rel.object_gt_id):
                        assert restrict_track(gts[gid], rel.slot, sample.frame_count)

    def test_every_rule_fires_somewhere(self):
        cfg = SynthConfig(videos=24, d_a=8, object_categories=8, objects_min=4,
                          objects_max=6, max_relations=12)
        samples, vocab = synth_generate(cfg, seed=2)
        seen = {r.predicate for s in samples for r in s.gt_relations}
        assert seen == set(range(len(vocab.predicates)))
