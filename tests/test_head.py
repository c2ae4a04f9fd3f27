import numpy as np
import pytest

from relformer.autodiff import Tensor
from relformer.data import GtObject, TimeSlot, Tracklet, VideoSample
from relformer.head import (RelationTriplet, binarize_links, build_freq_bias,
                            classeme, classify_predicates, infer_triplets)
from relformer.nn import init_params, mlp_shapes

from conftest import widened
from oracles import infer_triplets_oracle, mlp_oracle, softmax_extended_oracle


class TestBinarizeLinks:
    def test_one_hot_row_selects_that_index(self):
        attn = np.zeros((2, 1, 4))
        attn[0, 0, 2] = 1.0
        attn[1, 0, 3] = 1.0
        np.testing.assert_array_equal(binarize_links(attn), [[2, 3]])

    def test_uniform_row_ties_break_low(self):
        attn = np.full((2, 2, 3), 1.0 / 3.0)
        np.testing.assert_array_equal(binarize_links(attn), [[0, 0], [0, 0]])

    def test_random_matches_scan_oracle(self, rng):
        attn = rng.uniform(size=(2, 5, 7))
        links = binarize_links(attn)
        for j in range(5):
            for r in range(2):
                best = max(range(7), key=lambda i: (attn[r, j, i], -i))
                assert links[j, r] == best

    def test_monotone_transform_invariance(self, rng):
        attn = rng.uniform(0.1, 0.9, size=(2, 4, 6))
        np.testing.assert_array_equal(binarize_links(attn),
                                      binarize_links(np.log(attn) * 3.0 + 1.0))


class TestClasseme:
    def test_one_hot_returns_embedding_row(self, rng):
        table = rng.normal(size=(5, 7))
        probs = np.zeros(5)
        probs[3] = 1.0
        np.testing.assert_array_equal(classeme(probs, table), table[3])

    def test_uniform_returns_column_means(self, rng):
        table = rng.normal(size=(4, 6))
        out = classeme(np.full(4, 0.25), table)
        np.testing.assert_allclose(out, table.mean(axis=0), atol=1e-12)

    def test_random_matches_matvec_oracle(self, rng):
        table = rng.normal(size=(6, 3))
        probs = rng.dirichlet(np.ones(6))
        want = sum(probs[i] * table[i] for i in range(6))
        np.testing.assert_allclose(classeme(probs, table), want, atol=1e-12)

    def test_float32_table_gives_a_float32_classeme(self, rng):
        """The float64 probs are rounded, not the table widened."""
        table = rng.normal(size=(6, 3)).astype(np.float32)
        assert classeme(rng.dirichlet(np.ones(6)), table).dtype == np.float32


def _make_sample_with_relations(pairs, n_objects=3, n_frames=10):
    """pairs: list of (sub_cat, obj_cat, predicate)."""
    gts, rels = [], []
    for k, (sc, oc, pred) in enumerate(pairs):
        for i, cat in enumerate((sc, oc)):
            gts.append(GtObject(
                id=2 * k + i, slot=TimeSlot(0.0, 0.4),
                boxes=np.tile([0.1, 0.1, 0.2, 0.2], (4, 1)), category=cat))
        rels.append(__import__("relformer.data", fromlist=["GtRelation"]).GtRelation(
            subject_gt_id=2 * k, object_gt_id=2 * k + 1, predicate=pred,
            slot=TimeSlot(0.0, 0.4)))
    return VideoSample(video_id="v", frame_count=n_frames, tracklets=[],
                       gt_objects=gts, gt_relations=rels)


class TestFreqBias:
    def test_no_relations_gives_uniform_fibers(self):
        bias = build_freq_bias([], n_objects=3, n_predicates=4)
        np.testing.assert_allclose(bias, np.log(1.0 / 4.0), atol=1e-12)

    def test_fibers_are_log_probabilities(self):
        sample = _make_sample_with_relations([(0, 1, 2), (0, 1, 2), (1, 2, 0)])
        bias = build_freq_bias([sample], n_objects=3, n_predicates=4)
        sums = np.exp(bias).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_dominant_pair_approaches_zero_log_prob(self):
        sample = _make_sample_with_relations([(0, 1, 2)] * 50)
        bias = build_freq_bias([sample], n_objects=3, n_predicates=4,
                               smoothing=1e-9)
        assert bias[0, 1, 2] > -1e-8
        assert bias[0, 1, 0] < -15.0

    def test_counting_oracle_three_to_one(self):
        sample = _make_sample_with_relations(
            [(0, 1, 0)] * 3 + [(0, 1, 1)] * 1)
        eps = 1e-3
        bias = build_freq_bias([sample], n_objects=2, n_predicates=2, smoothing=eps)
        np.testing.assert_allclose(bias[0, 1, 0], np.log((3 + eps) / (4 + 2 * eps)),
                                   atol=1e-12)
        np.testing.assert_allclose(bias[0, 1, 1], np.log((1 + eps) / (4 + 2 * eps)),
                                   atol=1e-12)


class TestClassifyPredicates:
    def _setup(self, rng, m=3, n=4, n_obj=4, n_rel=5, d_q=6, d_w=3, zero_mlp=False):
        store = widened(init_params(mlp_shapes("head.classify", d_q + 2 * d_w, 8, n_rel + 1),
                                    rng))
        if zero_mlp:
            for suffix in ("w1", "b1", "w2", "b2"):
                store[f"head.classify.{suffix}"].data[:] = 0.0
        store.add("tables.freq_bias", np.full((n_obj, n_obj, n_rel), -np.log(n_rel)),
                  trainable=False)
        queries = Tensor(rng.normal(size=(m, d_q)))
        links = rng.integers(0, n, size=(m, 2))
        classemes = rng.normal(size=(n, d_w))
        categories = rng.integers(0, n_obj, size=n)
        return store, queries, links, classemes, categories

    def test_zero_mlp_uniform_bias_exact_distribution(self, rng):
        n_rel = 5
        store, q, links, clsm, cats = self._setup(rng, n_rel=n_rel,
                                                        zero_mlp=True)
        probs = classify_predicates(store, q, links, clsm, cats).data
        # logits = [log(1/R)] * R + [0]; softmax gives 1/(2R) per category, 1/2 empty
        np.testing.assert_allclose(probs[:, :n_rel], 1.0 / (2 * n_rel), atol=1e-12)
        np.testing.assert_allclose(probs[:, n_rel], 0.5, atol=1e-12)

    def test_huge_one_hot_bias_dominates(self, rng):
        store, q, links, clsm, cats = self._setup(rng, zero_mlp=True)
        bias = store["tables.freq_bias"].data
        bias[:] = 0.0
        bias[:, :, 2] = 50.0
        probs = classify_predicates(store, q, links, clsm, cats).data
        assert np.all(np.argmax(probs, axis=1) == 2)

    def test_matches_concat_affine_softmax_oracle(self, rng):
        store, q, links, clsm, cats = self._setup(rng)
        probs = classify_predicates(store, q, links, clsm, cats).data
        joint = np.concatenate([q.data, clsm[links[:, 0]], clsm[links[:, 1]]], axis=1)
        logits = mlp_oracle(joint, store["head.classify.w1"].data,
                            store["head.classify.b1"].data,
                            store["head.classify.w2"].data,
                            store["head.classify.b2"].data)
        bias = store["tables.freq_bias"].data
        fibers = bias[cats[links[:, 0]], cats[links[:, 1]]]
        logits[:, :-1] += fibers
        for j in range(len(probs)):
            np.testing.assert_allclose(probs[j], softmax_extended_oracle(logits[j]),
                                       atol=1e-12)

    def test_rows_sum_to_one_and_bias_shift_invariance(self, rng):
        store, q, links, clsm, cats = self._setup(rng)
        base = classify_predicates(store, q, links, clsm, cats).data
        np.testing.assert_allclose(base.sum(axis=1), 1.0, atol=1e-9)
        # adding a constant to a whole logit row leaves softmax unchanged;
        # emulate by shifting both the bias fiber and the empty slot
        w2 = store["head.classify.b2"]
        w2.data[:] += 3.21
        shifted = classify_predicates(store, q, links, clsm, cats).data
        np.testing.assert_allclose(shifted, base, atol=1e-9)


def _tracklets_for_inference(n=3, frame_count=10, overlap=True):
    tracklets = []
    for tid in range(n):
        start = 0 if overlap or tid == 0 else 5
        length = 5 if overlap or tid == 0 else 5
        probs = np.zeros(2)
        probs[0] = 1.0
        tracklets.append(Tracklet(
            id=tid, slot=TimeSlot(start / frame_count, (start + length) / frame_count),
            boxes=np.tile([0.1, 0.1, 0.2, 0.2], (length, 1)),
            appearance=np.zeros((length, 2)), category=0, probs=probs))
    return tracklets


def _random_tracklets(rng, frame_count=12):
    """1-5 tracklets with random slots; temporally disjoint pairs are common."""
    tracklets = []
    for tid in range(int(rng.integers(1, 6))):
        a = int(rng.integers(0, 10))
        b = int(rng.integers(a + 2, frame_count + 1))
        tracklets.append(Tracklet(
            id=3 * tid + 1, slot=TimeSlot(a / frame_count, b / frame_count),
            boxes=np.tile([0.1, 0.1, 0.2, 0.2], (b - a, 1)),
            appearance=np.zeros((b - a, 2)), category=0, probs=[1.0]))
    return tracklets


def _random_queries(rng, m, n_rel, n):
    """(probs, links) of m queries: probabilities drawn from few values, so
    that ties are common, and links that may pair a tracklet with itself."""
    probs = rng.choice([0.05, 0.1, 0.2, 0.3], size=(m, n_rel + 1))
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, rng.integers(0, n, size=(m, 2))


class TestInferTriplets:
    def test_truncates_to_category_count(self):
        tracklets = _tracklets_for_inference(2)
        probs = np.array([[0.5, 0.3, 0.1, 0.1]])  # 3 categories + empty
        links = np.array([[0, 1]])
        out = infer_triplets(probs, links, tracklets, top_k_per_query=10)
        assert len(out) == 3

    def test_self_paired_and_disjoint_links_dropped(self):
        frame_count = 10
        probs = np.zeros(2)
        probs[0] = 1.0
        a = Tracklet(id=0, slot=TimeSlot(0.0, 0.5),
                     boxes=np.tile([0.1, 0.1, 0.2, 0.2], (5, 1)),
                     appearance=np.zeros((5, 2)), category=0, probs=probs)
        b = Tracklet(id=1, slot=TimeSlot(0.5, 1.0),
                     boxes=np.tile([0.1, 0.1, 0.2, 0.2], (5, 1)),
                     appearance=np.zeros((5, 2)), category=0, probs=probs)
        prob_rows = np.array([[0.9, 0.1], [0.9, 0.1]])
        self_links = np.array([[0, 0], [0, 1]])  # query0 self-pair, query1 disjoint
        assert infer_triplets(prob_rows, self_links, [a, b], top_k_per_query=10) == []

    def test_two_query_enumeration_oracle(self):
        tracklets = _tracklets_for_inference(3)
        probs = np.array([
            [0.4, 0.3, 0.2, 0.1],   # query 0
            [0.25, 0.25, 0.4, 0.1],  # query 1
        ])
        links = np.array([[0, 1], [0, 2]])
        out = infer_triplets(probs, links, tracklets, top_k_per_query=2)
        slot = tracklets[0].slot
        assert out == [
            RelationTriplet(0, 1, 0, 0.4, slot),
            RelationTriplet(0, 2, 2, 0.4, slot),
            RelationTriplet(0, 1, 1, 0.3, slot),
            RelationTriplet(0, 2, 0, 0.25, slot),
        ]

    def test_slot_is_tracklet_intersection(self):
        frame_count = 10
        probs = np.zeros(2)
        probs[0] = 1.0
        a = Tracklet(id=0, slot=TimeSlot(0.0, 0.6),
                     boxes=np.tile([0.1, 0.1, 0.2, 0.2], (6, 1)),
                     appearance=np.zeros((6, 2)), category=0, probs=probs)
        b = Tracklet(id=1, slot=TimeSlot(0.4, 1.0),
                     boxes=np.tile([0.1, 0.1, 0.2, 0.2], (6, 1)),
                     appearance=np.zeros((6, 2)), category=0, probs=probs)
        out = infer_triplets(np.array([[0.9, 0.1]]), np.array([[0, 1]]), [a, b],
                             top_k_per_query=10)
        assert out[0].slot == TimeSlot(0.4, 0.6)


    @pytest.mark.parametrize("seed", range(10))
    def test_matches_candidate_then_filter_oracle(self, seed):
        """Random links over tracklets with self links, disjoint pairs, and
        probabilities drawn from few values so that ties are common."""
        rng = np.random.default_rng(seed)
        tracklets = _random_tracklets(rng)
        m, n_rel = int(rng.integers(1, 30)), int(rng.integers(1, 7))
        probs, links = _random_queries(rng, m, n_rel, len(tracklets))
        for k in (1, 3, 10):
            got = [(t.subject_tracklet_id, t.object_tracklet_id, t.predicate, t.score,
                    t.slot.start, t.slot.end)
                   for t in infer_triplets(probs, links, tracklets, top_k_per_query=k)]
            assert got == infer_triplets_oracle(probs, links, tracklets, k)
            assert all(type(v) is int for row in got for v in row[:3])
            assert all(type(row[3]) is float for row in got)

    def test_tied_probabilities_keep_the_lowest_categories(self):
        tracklets = _tracklets_for_inference(2)
        probs = np.array([[0.3, 0.3, 0.3, 0.1]])
        out = infer_triplets(probs, np.array([[0, 1]]), tracklets, top_k_per_query=2)
        assert [t.predicate for t in out] == [0, 1]


class TestEnsembleMerge:
    """An ensemble ranks the query rows of all its models in one
    ``infer_triplets`` call over their concatenation."""

    def test_shared_key_keeps_higher_score(self):
        tracklets = _tracklets_for_inference(2)
        probs = np.array([[0.4, 0.3, 0.3],    # model A's query
                          [0.7, 0.2, 0.1]])   # model B's query, same pair
        out = infer_triplets(probs, np.array([[0, 1], [0, 1]]), tracklets,
                             top_k_per_query=1)
        assert [(t.predicate, t.score) for t in out] == [(0, 0.7)]

    def test_three_models_match_concat_group_oracle(self):
        """Equals each model's own oracle list, merged by the best score per
        (predicate, subject, object) and ranked by descending score, then key."""
        merged_any = False
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tracklets = _random_tracklets(rng)
            n_rel = int(rng.integers(1, 7))
            models = [_random_queries(rng, int(rng.integers(1, 12)), n_rel, len(tracklets))
                      for _ in range(3)]
            probs = np.concatenate([p for p, _ in models])
            links = np.concatenate([l for _, l in models])
            for k in (1, 3, 10):
                best, total = {}, 0
                for p, l in models:
                    rows = infer_triplets_oracle(p, l, tracklets, k)
                    total += len(rows)
                    for row in rows:
                        key = (row[2], row[0], row[1])
                        if key not in best or row[3] > best[key][3]:
                            best[key] = row
                want = sorted(best.values(), key=lambda t: (-t[3], t[2], t[0], t[1]))
                got = [(t.subject_tracklet_id, t.object_tracklet_id, t.predicate, t.score,
                        t.slot.start, t.slot.end)
                       for t in infer_triplets(probs, links, tracklets, top_k_per_query=k)]
                assert got == want
                merged_any |= len(want) < total
        assert merged_any  # some key was predicted by more than one model
