import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relformer import data
from relformer.data import (MAX_FRAME_COUNT, GtObject, GtRelation, TimeSlot, Tracklet,
                            VideoSample,
                            assign_tracklets_to_gt, box_iou, compute_viou, pair_vious,
                            restrict_track)
from relformer.errors import DataError
from relformer.model import _roi_frame_ranges

from oracles import assignment_rules_oracle, cut_frames, track_frames, viou_oracle


def make_gt(tid, start_frame, n_frames, frame_count, box, category=0, cls=GtObject,
            **extra):
    boxes = np.tile(np.asarray(box, dtype=np.float64), (n_frames, 1))
    return cls(id=tid, slot=TimeSlot(start_frame / frame_count,
                                     (start_frame + n_frames) / frame_count),
               boxes=boxes, category=category, **extra)


def make_track(tid, start_frame, n_frames, frame_count, box, category=0,
               probs=(1.0,), d_a=4):
    return make_gt(tid, start_frame, n_frames, frame_count, box, category, Tracklet,
                   appearance=np.zeros((n_frames, d_a)), probs=probs)


def track_viou(a, b, frame_count):
    """vIoU of two whole tracks through the shared-frame pass."""
    return pair_vious([a, b], [(0, *a.slot.frame_span(frame_count),
                                1, *b.slot.frame_span(frame_count))], frame_count)[0]


class TestTimeSlot:
    def test_validates_order_and_range(self):
        with pytest.raises(DataError):
            TimeSlot(0.5, 0.5)
        with pytest.raises(DataError):
            TimeSlot(-0.1, 0.5)
        with pytest.raises(DataError):
            TimeSlot(0.2, 1.1)

    def test_frame_span_is_exact_on_frame_fractions(self):
        for frame_count in (3, 7, 19, 24, 40):
            for a in range(frame_count):
                for b in range(a + 1, frame_count + 1):
                    slot = TimeSlot(a / frame_count, b / frame_count)
                    assert slot.frame_span(frame_count) == (a, b)

    def test_every_valid_slot_covers_a_frame(self):
        assert TimeSlot(0.551, 0.552).frame_length(10) == 1

    def test_frame_span_stays_inside_the_video(self):
        """A slot that starts a float ulp below the video's end keeps the
        last frame; the 1e-9 guard alone would name frame 10 of 10."""
        assert TimeSlot(1 - 1e-12, 1.0).frame_span(10) == (9, 10)
        assert TimeSlot(np.nextafter(1.0, 0.0), 1.0).frame_span(36) == (35, 36)

    @given(st.integers(2, 400), st.integers(0, 399),
           st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           st.floats(-15.0, 0.0))
    @example(10, 3, 0.0, -12.0)  # TimeSlot(0.3, 0.3 + 1e-12) over 10 frames
    @example(10, 9, 1.0 - 1e-11, -12.0)  # starts 1e-12 below the video's end
    @settings(max_examples=300, deadline=None)
    def test_frame_span_is_the_roi_frame_rule(self, frame_count, frame, offset,
                                              log_width):
        """Slots start on or inside a frame and span down to 1e-15 of the
        video, far below the 1e-9 frame guard; the data and the RoI pooling
        give each one the same frames."""
        start = (min(frame, frame_count - 1) + offset) / frame_count
        end = min(start + 10.0 ** log_width, 1.0)
        assume(start < end)
        valid, f0, f1 = _roi_frame_ranges(np.array([[0.0, 1.0]]), np.array([frame_count]),
                                          np.array([[start, end]]), frame_count)
        assert valid[0, 0]
        assert TimeSlot(start, end).frame_span(frame_count) == (int(f0[0, 0]), int(f1[0, 0]))

    @given(st.integers(0, MAX_FRAME_COUNT - 1), st.integers(1, MAX_FRAME_COUNT))
    @example(MAX_FRAME_COUNT - 1, 1)
    @example(0, MAX_FRAME_COUNT)
    @settings(max_examples=300, deadline=None)
    def test_frame_span_is_exact_at_the_largest_frame_count(self, first, length):
        """The frame guard still absorbs the rounding of (k / F) * F at
        F = MAX_FRAME_COUNT, so frame fractions name their frames."""
        frames = MAX_FRAME_COUNT
        last = min(first + length, frames)
        assert TimeSlot(first / frames, last / frames).frame_span(frames) == (first, last)

    def test_intersect(self):
        assert TimeSlot(0.0, 0.5).intersect(TimeSlot(0.5, 1.0)) is None
        got = TimeSlot(0.0, 0.6).intersect(TimeSlot(0.4, 1.0))
        assert (got.start, got.end) == (0.4, 0.6)


class TestGtObjectValidation:
    def test_needs_two_frames_naming_the_object(self):
        with pytest.raises(DataError, match="^gt object 4: needs at least 2 frames"):
            make_gt(4, 0, 1, 10, (0.1, 0.1, 0.2, 0.2))

    @pytest.mark.parametrize("box,message", [
        ((0.3, 0.1, 0.2, 0.2), "boxes must satisfy x1<x2 and y1<y2"),
        ((0.1, 0.1, 0.2, 1.5), "box coordinates must be finite and lie in"),
        ((0.1, np.nan, 0.2, 0.2), "box coordinates must be finite and lie in"),
        ((0.1, 0.1, np.inf, 0.2), "box coordinates must be finite and lie in"),
        ((-np.inf, 0.1, 0.2, 0.2), "box coordinates must be finite and lie in"),
    ], ids=["inverted", "outside", "nan", "inf", "-inf"])
    def test_bad_boxes_name_the_object(self, box, message):
        with pytest.raises(DataError, match=f"^gt object 2: {message}"):
            make_gt(2, 0, 3, 10, box)

    @pytest.mark.parametrize("cls", [GtObject, Tracklet])
    def test_negative_category_is_rejected(self, cls):
        """So a -1 that metrics gives an unknown tracklet agrees with no object."""
        extra = {"appearance": np.zeros((3, 4)), "probs": [1.0]} if cls is Tracklet else {}
        with pytest.raises(DataError, match=f"^{cls.kind} 2: category -1 outside vocab"):
            make_gt(2, 0, 3, 10, (0.1, 0.1, 0.2, 0.2), -1, cls, **extra)

    def test_carries_no_features_or_probs(self):
        g = make_gt(0, 0, 3, 10, (0.1, 0.1, 0.2, 0.2))
        assert not hasattr(g, "appearance") and not hasattr(g, "probs")
        assert g.length == 3 and g.boxes.dtype == np.float64


class TestFrameCountBound:
    @pytest.mark.parametrize("frame_count", [1, MAX_FRAME_COUNT + 1, 3 * 10 ** 9])
    def test_video_sample_rejects_the_count(self, frame_count):
        with pytest.raises(DataError, match=(rf"^video v: frame_count must lie in "
                                             rf"\[2, {MAX_FRAME_COUNT}\], got {frame_count}$")):
            VideoSample(video_id="v", frame_count=frame_count, tracklets=[], gt_objects=[])

    def test_largest_count_is_accepted(self):
        g = make_gt(0, MAX_FRAME_COUNT - 3, 3, MAX_FRAME_COUNT, (0.1, 0.1, 0.2, 0.2))
        sample = VideoSample(video_id="v", frame_count=MAX_FRAME_COUNT, tracklets=[],
                             gt_objects=[g])
        assert sample.gt_objects[0].slot.frame_span(MAX_FRAME_COUNT)[1] == MAX_FRAME_COUNT


class TestTrackletValidation:
    def test_needs_two_frames(self):
        with pytest.raises(DataError, match="at least 2 frames"):
            make_track(0, 0, 1, 10, (0.1, 0.1, 0.2, 0.2))

    def test_box_order_invariant_names_tracklet(self):
        boxes = np.tile([0.3, 0.1, 0.2, 0.2], (4, 1))  # x1 > x2
        with pytest.raises(DataError, match="tracklet 7"):
            Tracklet(id=7, slot=TimeSlot(0.0, 0.4), boxes=boxes,
                     appearance=np.zeros((4, 3)), category=0, probs=[1.0])

    def test_probs_must_sum_to_one(self):
        with pytest.raises(DataError, match="probability"):
            make_track(0, 0, 4, 10, (0.1, 0.1, 0.2, 0.2),
                       probs=np.array([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_boxes_and_probs_rejected(self, bad):
        box = (0.1, 0.1, 0.2, 0.2)
        for coord in range(4):
            boxes = np.tile(box, (2, 1))
            boxes[1, coord] = bad
            with pytest.raises(DataError, match="tracklet 3: box coordinates must be finite"):
                Tracklet(id=3, slot=TimeSlot(0.0, 0.2), boxes=boxes,
                         appearance=np.zeros((2, 4)), category=0, probs=[1.0])
        with pytest.raises(DataError, match="tracklet 0: probs must be a finite"):
            make_track(0, 0, 4, 10, box, probs=np.array([bad, 1.0]))

    def test_probs_are_required(self):
        with pytest.raises(DataError, match="tracklet 0: probs must be a 1-d"):
            make_track(0, 0, 4, 10, (0.1, 0.1, 0.2, 0.2), probs=None)

    def test_sample_checks_slot_length_and_relation_refs(self):
        t = make_track(0, 0, 4, 10, (0.1, 0.1, 0.2, 0.2),
                       probs=np.array([1.0]))
        g = make_gt(0, 0, 4, 10, (0.1, 0.1, 0.2, 0.2))
        with pytest.raises(DataError, match="not in gt_objects"):
            VideoSample(video_id="v", frame_count=10, tracklets=[t], gt_objects=[g],
                        gt_relations=[GtRelation(0, 1, 0, TimeSlot(0.0, 0.4))])


class TestRelationSlots:
    """A GT relation's slot must overlap its subject's and its object's: on
    no shared frame could a prediction localize it, yet it would count in
    every recall and AP denominator."""

    BOX = (0.1, 0.1, 0.2, 0.2)

    def sample(self, relation_slot, object_start=0):
        gts = [make_gt(0, 0, 5, 12, self.BOX), make_gt(1, object_start, 5, 12, self.BOX)]
        return VideoSample(video_id="v", frame_count=12, tracklets=[], gt_objects=gts,
                           gt_relations=[GtRelation(1, 0, 0, TimeSlot(0.0, 1.0)),
                                         GtRelation(0, 1, 0, relation_slot)])

    def test_relation_after_both_objects_is_rejected(self):
        """Objects on frames 0-4 of 12, the relation on frames 8-11."""
        with pytest.raises(DataError, match=r"^video v: gt_relations\[1\]: slot "
                                            r"\(0\.6666666666666666, 1\.0\) does not overlap "
                                            r"its subject 0's slot \(0\.0, 0\.4166666666666667\)$"):
            self.sample(TimeSlot(8 / 12, 1.0))

    def test_the_object_side_is_checked_too(self):
        with pytest.raises(DataError, match=r"gt_relations\[1\]: .* its object 1's slot"):
            self.sample(TimeSlot(0.0, 5 / 12), object_start=7)

    def test_a_slot_that_only_touches_is_rejected(self):
        with pytest.raises(DataError, match="does not overlap its subject 0"):
            self.sample(TimeSlot(5 / 12, 1.0))

    def test_any_overlap_is_accepted(self):
        sample = self.sample(TimeSlot(np.nextafter(5 / 12, 0.0), 1.0))
        assert len(sample.gt_relations) == 2


class TestViou:
    def test_identical_tracklets_give_one(self):
        a = make_gt(0, 2, 5, 10, (0.1, 0.2, 0.4, 0.5))
        assert track_viou(a, a, 10) == 1.0

    def test_temporally_disjoint_give_zero(self):
        a = make_gt(0, 0, 3, 10, (0.1, 0.1, 0.3, 0.3))
        b = make_gt(1, 5, 3, 10, (0.1, 0.1, 0.3, 0.3))
        assert track_viou(a, b, 10) == 0.0

    def test_half_iou_two_shared_frames_over_union_six(self):
        # 4-frame tracklets overlapping on 2 frames; per-frame IoU exactly 0.5
        # (one box is the half-area left part of the other): (0.5+0.5)/6 = 1/6.
        a = make_gt(0, 0, 4, 12, (0.0, 0.0, 0.1, 0.2))
        b = make_gt(1, 2, 4, 12, (0.0, 0.0, 0.2, 0.2))
        np.testing.assert_allclose(track_viou(a, b, 12), 1.0 / 6.0, atol=1e-12)

    def test_matches_frame_dict_oracle_on_random_tracks(self, rng):
        frame_count = 20
        for _ in range(25):
            tracks = []
            for tid in range(2):
                start = int(rng.integers(0, 10))
                n = int(rng.integers(2, 10))
                x1, y1 = rng.uniform(0.0, 0.5, size=2)
                w, h = rng.uniform(0.05, 0.4, size=2)
                boxes = np.tile([x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0)], (n, 1))
                boxes += rng.uniform(-0.01, 0.01, size=boxes.shape)
                boxes = np.clip(boxes, 0.0, 1.0)
                boxes[:, 2] = np.maximum(boxes[:, 2], boxes[:, 0] + 1e-3)
                boxes[:, 3] = np.maximum(boxes[:, 3], boxes[:, 1] + 1e-3)
                tracks.append(GtObject(id=tid, boxes=boxes, category=0, slot=TimeSlot(
                    start / frame_count, (start + n) / frame_count)))
            got = track_viou(tracks[0], tracks[1], frame_count)
            want = viou_oracle(track_frames(tracks[0], frame_count),
                               track_frames(tracks[1], frame_count))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_symmetry_and_bounds(self, rng):
        a = make_gt(0, 0, 6, 12, (0.1, 0.1, 0.4, 0.4))
        b = make_gt(1, 3, 6, 12, (0.2, 0.2, 0.5, 0.5))
        ab = track_viou(a, b, 12)
        ba = track_viou(b, a, 12)
        assert ab == ba
        assert 0.0 < ab < 1.0

    def test_one_only_for_identical(self):
        a = make_gt(0, 0, 4, 10, (0.1, 0.1, 0.3, 0.3))
        shifted = make_gt(1, 0, 4, 10, (0.1, 0.1, 0.3, 0.30001))
        assert track_viou(a, shifted, 10) < 1.0

    def test_restrict_track(self):
        a = make_gt(0, 2, 6, 10, (0.1, 0.1, 0.3, 0.3))
        assert restrict_track(a, TimeSlot(0.4, 0.6), 10) == (4, 6)
        assert restrict_track(a, TimeSlot(0.9, 1.0), 10) is None

    def test_restrict_track_to_a_slot_starting_an_ulp_below_the_track_end(self):
        """The slot's first frame is the frame past the track by the 1e-9
        guard alone; clamped into the track, the span keeps the track's last
        frame."""
        a = make_gt(0, 0, 15, 36, (0.1, 0.1, 0.3, 0.3))
        span = restrict_track(a, TimeSlot(np.nextafter(15 / 36, 0.0), 1.0), 36)
        assert span == (14, 15)
        assert pair_vious([a], [(0, *span, 0, *span)], 36)[0] == 1.0


class TestBoxIou:
    def test_vectorized_matches_known_values(self):
        a = np.array([[0.0, 0.0, 0.2, 0.2], [0.0, 0.0, 0.1, 0.1]])
        b = np.array([[0.0, 0.0, 0.2, 0.2], [0.5, 0.5, 0.6, 0.6]])
        np.testing.assert_allclose(box_iou(a, b), [1.0, 0.0])


class TestAssignment:
    def _sample(self, tracklets, gts, frame_count=10):
        return VideoSample(video_id="v", frame_count=frame_count,
                           tracklets=tracklets, gt_objects=gts, gt_relations=[])

    def test_noiseless_identity(self, clean_dataset):
        samples, _ = clean_dataset
        for sample in samples:
            by_gt = assign_tracklets_to_gt(sample, threshold=0.5)
            tracklets = {t.id: t for t in sample.tracklets}
            for gt in sample.gt_objects:
                assert by_gt[gt.id] == [gt.id]
                viou = track_viou(tracklets[gt.id], gt, sample.frame_count)
                assert viou == pytest.approx(1.0)

    def test_disjoint_distractor_unassigned(self):
        probs = np.array([1.0])
        gt = make_gt(0, 0, 4, 10, (0.1, 0.1, 0.3, 0.3))
        good = make_track(0, 0, 4, 10, (0.1, 0.1, 0.3, 0.3), probs=probs)
        far = make_track(1, 6, 4, 10, (0.7, 0.7, 0.9, 0.9), probs=probs)
        by_gt = assign_tracklets_to_gt(self._sample([good, far], [gt]), threshold=0.5)
        assert by_gt == {0: [0]}

    def test_low_quality_rescue_assigns_best_below_threshold(self):
        probs = np.array([1.0])
        gt = make_gt(0, 0, 8, 10, (0.1, 0.1, 0.3, 0.3))
        weak = make_track(0, 0, 2, 10, (0.1, 0.1, 0.3, 0.3), probs=probs)
        by_gt = assign_tracklets_to_gt(self._sample([weak], [gt]), threshold=0.5)
        assert track_viou(weak, gt, 10) < 0.5
        assert by_gt == {0: [0]}

    def test_three_by_two_table_matches_rule_oracle(self, rng):
        # three tracklets, two GT objects, all overlapping differently
        frame_count = 12
        probs = np.array([1.0])
        gt0 = make_gt(0, 0, 8, frame_count, (0.1, 0.1, 0.3, 0.3))
        gt1 = make_gt(1, 4, 8, frame_count, (0.5, 0.5, 0.8, 0.8))
        t0 = make_track(0, 0, 8, frame_count, (0.1, 0.1, 0.3, 0.3), probs=probs)
        t1 = make_track(1, 4, 6, frame_count, (0.5, 0.5, 0.8, 0.8), probs=probs)
        t2 = make_track(2, 2, 6, frame_count, (0.12, 0.12, 0.32, 0.32), probs=probs)
        sample = self._sample([t0, t1, t2], [gt0, gt1], frame_count)
        viou = np.array([[track_viou(t, g, frame_count) for g in sample.gt_objects]
                         for t in sample.tracklets])
        by_gt = assign_tracklets_to_gt(sample, threshold=0.5)
        want = assignment_rules_oracle(viou, [0, 1, 2], [0, 1], 0.5)
        assert by_gt == want

    def test_never_assigns_one_tracklet_twice(self, toy_dataset):
        samples, _ = toy_dataset
        for sample in samples:
            by_gt = assign_tracklets_to_gt(sample, threshold=0.5)
            seen = [tid for tids in by_gt.values() for tid in tids]
            assert len(seen) == len(set(seen))


@given(st.integers(2, 30), st.integers(2, 30), st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_viou_union_bound(len_a, len_b, start_a, start_b):
    frame_count = 50
    box = (0.1, 0.1, 0.4, 0.4)
    a = make_gt(0, start_a, len_a, frame_count, box)
    b = make_gt(1, start_b, len_b, frame_count, box)
    v = track_viou(a, b, frame_count)
    assert 0.0 <= v <= 1.0
    shared = max(0, min(start_a + len_a, start_b + len_b) - max(start_a, start_b))
    union = len_a + len_b - shared
    np.testing.assert_allclose(v, shared / union, atol=1e-12)


@st.composite
def restricted_pairs(draw):
    """A video's random tracks, and random pairs of them, each side cut by a
    restricting slot: frame-aligned, one frame wide, disjoint from its
    track, or starting a float ulp below its track's end."""
    frame_count = draw(st.integers(2, 40))
    tracks = []
    for tid in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, frame_count - 2))
        n = draw(st.integers(2, frame_count - start))
        corners = draw(st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5),
                                          st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
                                min_size=n, max_size=n))
        boxes = [(x, y, x + w, y + h) for x, y, w, h in corners]
        tracks.append(GtObject(id=tid, boxes=np.array(boxes), category=0, slot=TimeSlot(
            start / frame_count, (start + n) / frame_count)))

    def cut(track):
        t0, t1 = track.slot.frame_span(frame_count)
        kind = draw(st.sampled_from(["frames", "one", "disjoint", "ulp"]))
        if kind == "ulp":
            return TimeSlot(float(np.nextafter(track.slot.end, 0.0)), 1.0)
        if kind == "one":
            f = draw(st.integers(0, frame_count - 1))
            return TimeSlot(f / frame_count, (f + 1) / frame_count)
        if kind == "disjoint" and (t0 > 0 or t1 < frame_count):
            a, b = (0, t0) if t0 > 0 else (t1, frame_count)
        else:
            a = draw(st.integers(0, frame_count - 1))
            b = draw(st.integers(a + 1, frame_count))
        return TimeSlot(a / frame_count, b / frame_count)

    pairs = [(draw(st.integers(0, len(tracks) - 1)), draw(st.integers(0, len(tracks) - 1)))
             for _ in range(draw(st.integers(1, 6)))]
    return frame_count, tracks, [(i, cut(tracks[i]), j, cut(tracks[j])) for i, j in pairs]


@given(restricted_pairs())
@settings(max_examples=200, deadline=None)
def test_pair_vious_match_the_frame_dict_oracle(case):
    """One pass over restricted pairs gives each pair the oracle's vIoU, and
    bit for bit what compute_viou gives on that pair's own box_iou call."""
    frame_count, tracks, cuts = case
    rows, want, alone = [], [], []
    for i, slot_a, j, slot_b in cuts:
        span_a = restrict_track(tracks[i], slot_a, frame_count)
        span_b = restrict_track(tracks[j], slot_b, frame_count)
        frames_a = cut_frames(tracks[i], slot_a, frame_count)
        frames_b = cut_frames(tracks[j], slot_b, frame_count)
        assert (span_a is None, span_b is None) == (frames_a is None, frames_b is None)
        if span_a is None or span_b is None:
            continue
        assert (sorted(frames_a), sorted(frames_b)) == (list(range(*span_a)),
                                                        list(range(*span_b)))
        rows.append((i, *span_a, j, *span_b))
        want.append(viou_oracle(frames_a, frames_b))
        shared = sorted(set(frames_a) & set(frames_b))
        ious = box_iou(np.array([frames_a[f] for f in shared]).reshape(-1, 4),
                       np.array([frames_b[f] for f in shared]).reshape(-1, 4))
        alone.append(compute_viou(ious, span_a, span_b))
    got = pair_vious(tracks, rows, frame_count)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert got.tolist() == alone


def test_assignment_makes_one_box_iou_call(toy_dataset, monkeypatch):
    calls = []
    original = data.box_iou
    monkeypatch.setattr(data, "box_iou", lambda a, b: calls.append(len(a)) or original(a, b))
    for sample in toy_dataset[0]:
        calls.clear()
        assign_tracklets_to_gt(sample, threshold=0.5)
        assert len(calls) == 1 and calls[0] > 0
