import dataclasses
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relformer import autodiff as ad
from relformer.autodiff import Tensor, backward
from relformer.config import ModelConfig
from relformer.data import MAX_FRAME_COUNT, TimeSlot, Tracklet, VideoSample
from relformer.errors import ConfigError, DataError
from relformer.features import init_tracklet_feature
from relformer.model import (RelationModel, build_anchors, cross_attend, init_store,
                             normalize_attention, param_shapes, role_attention,
                             video_pool_rows)
from relformer.nn import ParamStore, init_params, mlp_shapes, pooled_mlp_forward

from conftest import widened
from oracles import double_softmax_oracle, mlp_oracle, roi_pool_oracle


class TestAnchors:
    def test_reference_grid_yields_192(self):
        anchors = build_anchors(16, 12)
        assert anchors.shape == (192, 2)
        s, e = anchors.T  # every anchor is a valid slot
        assert np.all((0.0 <= s) & (s < e) & (e <= 1.0))

    def test_single_anchor_clamps(self):
        anchors = build_anchors(1, 1)
        assert anchors.shape == (1, 2)
        np.testing.assert_allclose(anchors[0], [0.5, 1.0])

    def test_invalid_grid_rejected(self):
        for field in ("m_c", "m_d"):
            with pytest.raises(ConfigError, match=f"model.{field} must be positive"):
                ModelConfig(**{field: 0})

    def test_center_duration_structure(self):
        anchors = build_anchors(4, 2)
        # first anchor: center 1/4, duration 1/2 -> (0, 0.5)
        np.testing.assert_allclose(anchors[0], [0.0, 0.5])
        # last anchor: center 1, duration 1 -> clamped (0.5, 1)
        np.testing.assert_allclose(anchors[-1], [0.5, 1.0])


def track_pool_rows(track_slot, span, query_slots, frame_count, l_roi, dtype):
    """One tracklet's distinct pooling rows against m query slots and the
    (m,) row of each slot among them, via ``video_pool_rows``."""
    [rows], index = video_pool_rows(np.array([track_slot]), np.array([span]), query_slots,
                                    frame_count, l_roi, dtype)
    return rows, index[:, 0]


def pool_one(feat, track: TimeSlot, query: TimeSlot, frame_count, l_roi):
    """(l_roi, d) pooled rows of one tracklet-query pair via track_pool_rows."""
    rows, index = track_pool_rows((track.start, track.end), track.frame_span(frame_count),
                                  np.array([[query.start, query.end]]), frame_count, l_roi,
                                  np.float64)
    return rows[index[0]] @ feat


class TestRoiPooling:
    def test_identity_when_query_equals_tracklet(self, rng):
        frame_count = 14
        feat = rng.normal(size=(7, 5))
        slot = TimeSlot(0.0, 7 / frame_count)
        out = pool_one(feat, slot, slot, frame_count, l_roi=7)
        np.testing.assert_allclose(out, feat, atol=1e-12)

    def test_disjoint_slots_give_exact_zero(self, rng):
        frame_count = 20
        feat = rng.normal(size=(5, 5))
        out = pool_one(feat, TimeSlot(0.0, 0.25), TimeSlot(0.5, 0.9), frame_count,
                       l_roi=7)
        assert np.all(out == 0.0)

    def test_half_overlap_matches_binning_oracle(self, rng):
        frame_count = 28
        feat = rng.normal(size=(14, 5))
        track = TimeSlot(0.0, 0.5)           # frames 0..13
        query = TimeSlot(0.0, 0.25)          # frames 0..6 (first half)
        out = pool_one(feat, track, query, frame_count, l_roi=7)
        want = roi_pool_oracle(feat, (0, 14), (0, 7), 7)
        np.testing.assert_allclose(out, want, atol=1e-12)

    @pytest.mark.parametrize("qs,qe", [(0.1, 0.9), (0.3, 0.4), (0.05, 0.12),
                                       (0.5, 1.0), (0.0, 0.07)])
    def test_random_overlaps_match_oracle(self, rng, qs, qe):
        frame_count = 30
        track = TimeSlot(2 / 30, 26 / 30)
        feat = rng.normal(size=(24, 5))
        out = pool_one(feat, track, TimeSlot(qs, qe), frame_count, l_roi=7)
        q_span = TimeSlot(qs, qe).frame_span(frame_count)
        want = roi_pool_oracle(feat, (2, 26), q_span, 7)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_translation_consistency(self, rng):
        frame_count = 40
        feat = rng.normal(size=(10, 5))
        base = pool_one(feat, TimeSlot(0.0, 0.25), TimeSlot(0.1, 0.2), frame_count,
                        l_roi=5)
        shift = 10 / frame_count
        moved = pool_one(feat, TimeSlot(shift, 0.25 + shift),
                         TimeSlot(0.1 + shift, 0.2 + shift), frame_count, l_roi=5)
        np.testing.assert_allclose(base, moved, atol=1e-12)

    def test_weights_rows_sum_to_one_or_zero(self, rng):
        slots = rng.uniform(0.0, 1.0, size=(40, 2))
        slots.sort(axis=1)
        slots[:, 1] = np.maximum(slots[:, 1], slots[:, 0] + 1e-3)
        rows, index = track_pool_rows((0.2, 0.7), (4, 14), slots, 20, 7, np.float64)
        sums = rows[index].sum(axis=2)
        assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))


@st.composite
def pooling_cases(draw):
    """A frame count, 1-4 tracklets on frame fractions, an anchor grid plus up
    to three free query slots, and l_roi."""
    frame_count = draw(st.integers(3, 60))
    tracks = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, frame_count - 2))
        tracks.append((a, draw(st.integers(a + 2, frame_count))))
    grid = (draw(st.integers(1, 16)), draw(st.integers(1, 12)))
    extra = [sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                  unique=True)))
             for _ in range(draw(st.integers(0, 3)))]
    return frame_count, tracks, grid, extra, draw(st.integers(1, 8))


class TestVideoPoolRows:
    """All of a video's pooling rows come from one ``video_pool_rows`` pass."""

    @given(pooling_cases())
    @example((36, [(0, 15), (0, 36)], (16, 12), [], 8))  # an anchor starts an ulp below 15/36
    @example((7, [(2, 4)], (3, 2), [[0.0, 0.1]], 8))     # disjoint pairs, bins with no centre
    # 16 two-frame tracklets at the largest frame count: the keys stay in int64.
    @example((MAX_FRAME_COUNT, [(k * 2 ** 17, k * 2 ** 17 + 2) for k in range(16)], (16, 12),
              [[0.0, 1.0]], 8))
    @settings(max_examples=100, deadline=None)
    def test_pooled_features_match_the_oracle(self, case):
        frame_count, tracks, grid, extra, l_roi = case
        slots = np.array([[a / frame_count, b / frame_count] for a, b in tracks])
        queries = np.concatenate([build_anchors(*grid), np.reshape(extra, (-1, 2))])
        rows, index = video_pool_rows(slots, np.array(tracks), queries, frame_count, l_roi,
                                      np.float64)
        offsets = np.cumsum([0] + [len(r) for r in rows])
        rng = np.random.default_rng(frame_count)
        for i, ((t0, t1), track_slot) in enumerate(zip(tracks, slots)):
            feat = rng.normal(size=(t1 - t0, 3))
            for q, query_slot in enumerate(queries):
                inter = TimeSlot(*track_slot).intersect(TimeSlot(*query_slot))
                q_span = (0, 0)
                if inter is not None:
                    f0, f1 = inter.frame_span(frame_count)
                    q_span = (min(f0, t1 - 1), f1)
                want = roi_pool_oracle(feat, (t0, t1), q_span, l_roi)
                np.testing.assert_allclose(rows[i][index[q, i] - offsets[i]] @ feat, want,
                                           atol=1e-12)

    # sha256 of every toy video's pool_rows and pool_index bytes, in video
    # order, as the per-tracklet loop that video_pool_rows replaced wrote them.
    TOY_DIGESTS = {
        ((3, 2), "float32"): "16e7875ee68f10d371ac943a854d520a736d04d68f81f5e34fe4fd7c4746a2f6",
        ((3, 2), "float64"): "ce15e14553e37be77c83aad54d21a718dbc81d43ad36bfdfa8f9dce69789dc44",
        ((16, 12), "float32"): "e0b314485e4bfcf1cc4a0d47714459e5cbefdcb34d0cb037e5def8d08b79c910",
        ((16, 12), "float64"): "01f11d74c91a0a81a0cc76bf07ced3cf2fe3b1503a508520a3e6fcd78c050888",
    }

    @pytest.mark.parametrize("grid,dtype", sorted(TOY_DIGESTS))
    def test_toy_pool_rows_are_pinned(self, toy_model_config, toy_dataset, grid, dtype):
        samples, vocab = toy_dataset
        cfg = dataclasses.replace(toy_model_config, m_c=grid[0], m_d=grid[1])
        store = init_store(cfg, vocab, 3)
        model = RelationModel(cfg, vocab, store if dtype == "float32" else widened(store))
        digest = hashlib.sha256()
        for sample in samples:
            ctx = model.build_context(sample)
            model.forward(ctx)
            for rows in ctx.pool_rows:
                digest.update(rows.tobytes())
            digest.update(ctx.pool_index.tobytes())
        assert digest.hexdigest() == self.TOY_DIGESTS[(grid, dtype)]


class TestRoleAttention:
    def _store(self, d_q, d, rng):
        store = ParamStore()
        for role in ("subject", "object"):
            store.add(f"dec.{role}.query_proj", rng.normal(size=(d_q, d)))
            store.add(f"dec.{role}.key_proj", rng.normal(size=(d, d)))
        return store

    def test_zero_key_weights_zero_attention(self, rng):
        store = self._store(4, 4, rng)
        for role in ("subject", "object"):
            store[f"dec.{role}.key_proj"].data[:] = 0.0
        out = role_attention(Tensor(rng.normal(size=(3, 4))),
                             Tensor(rng.normal(size=(5, 4))), store, "dec")
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 5)))

    def test_scalar_case(self):
        store = ParamStore()
        for role in ("subject", "object"):
            store.add(f"dec.{role}.query_proj", np.ones((1, 1)))
            store.add(f"dec.{role}.key_proj", np.ones((1, 1)))
        out = role_attention(Tensor([[2.0]]), Tensor([[3.0]]), store, "dec")
        np.testing.assert_allclose(out.data, np.full((2, 1, 1), 6.0))

    def test_matches_triple_loop_oracle(self, rng):
        d_q, d, m, n = 4, 6, 3, 4
        store = self._store(d_q, d, rng)
        q = rng.normal(size=(m, d_q))
        h = rng.normal(size=(n, d))
        out = role_attention(Tensor(q), Tensor(h), store, "dec")
        for r, role in enumerate(("subject", "object")):
            wq = store[f"dec.{role}.query_proj"].data
            wk = store[f"dec.{role}.key_proj"].data
            for j in range(m):
                for i in range(n):
                    want = float((q[j] @ wq) @ (h[i] @ wk)) / np.sqrt(d)
                    np.testing.assert_allclose(out.data[r, j, i], want, atol=1e-12)


class TestNormalizeAttention:
    def test_all_zero_scores_give_quarter(self):
        out = normalize_attention(Tensor(np.zeros((2, 3, 2))))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-12)

    def test_single_tracklet_reduces_to_role_softmax(self, rng):
        raw = rng.normal(size=(2, 4, 1))
        out = normalize_attention(Tensor(raw.copy()))
        e = np.exp(raw)
        want = e / e.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_matches_two_pass_oracle(self, rng):
        raw = rng.normal(scale=3.0, size=(2, 2, 3))
        out = normalize_attention(Tensor(raw.copy()))
        np.testing.assert_allclose(out.data, double_softmax_oracle(raw), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roles_far_apart_stay_finite(self, rng, dtype):
        """Object scores 1000 below the subject's: with one shift shared by
        both roles, every object exponential underflows and its tracklet
        softmax is 0 / 0."""
        raw = rng.normal(size=(2, 3, 4))
        raw[1] -= 1000.0
        out = normalize_attention(Tensor(raw.astype(dtype))).data
        assert out.dtype == dtype and np.isfinite(out).all()
        np.testing.assert_allclose(out, double_softmax_oracle(raw),
                                   atol=np.finfo(dtype).eps)

    def test_product_bound_and_axis_sums(self, rng):
        raw = rng.normal(scale=4.0, size=(2, 5, 6))
        shifted = raw - raw.max(axis=(0, 2), keepdims=True)
        e = np.exp(shifted)
        over_tracklets = e / e.sum(axis=2, keepdims=True)
        over_roles = e / e.sum(axis=0, keepdims=True)
        out = normalize_attention(Tensor(raw.copy())).data
        assert np.all(out <= np.minimum(over_tracklets, over_roles) + 1e-12)
        assert np.all((out > 0.0) & (out < 1.0))
        np.testing.assert_allclose(over_tracklets.sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(over_roles.sum(axis=0), 1.0, atol=1e-9)


def dense_rows(values):
    """(m, n, d_v) values as ``cross_attend``'s rows and index: one row per pair."""
    m, n, d_v = values.shape
    return Tensor(values.reshape(m * n, d_v).copy()), np.arange(m * n).reshape(m, n)


class TestCrossAttend:
    def _store(self, d_v, d_q, hidden, rng):
        shapes = {}
        for role in ("subject", "object"):
            shapes.update(mlp_shapes(f"dec.{role}.out", d_v, hidden, d_q))
        return init_params(shapes, rng)

    def test_zero_object_params_isolate_subject_channel(self, rng):
        d_v = d_q = 4
        store = self._store(d_v, d_q, 6, rng)
        for name in store.names():
            if ".object." in name:
                store[name].data[:] = 0.0
        attn = rng.uniform(0.1, 0.9, size=(2, 3, 5))
        values = rng.normal(size=(3, 5, d_v))
        out = cross_attend(Tensor(attn.copy()), *dense_rows(values), store, "dec")
        mixed = attn[0][:, :, None] * values
        want = mlp_oracle(mixed.sum(axis=1), store["dec.subject.out.w1"].data,
                          store["dec.subject.out.b1"].data,
                          store["dec.subject.out.w2"].data,
                          store["dec.subject.out.b2"].data)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_single_tracklet_half_weights(self, rng):
        d_v = d_q = 3
        store = self._store(d_v, d_q, 5, rng)
        v = rng.normal(size=(1, 1, d_v))
        attn = np.full((2, 1, 1), 0.5)
        out = cross_attend(Tensor(attn), *dense_rows(v), store, "dec")
        half = (0.5 * v[0]).reshape(1, d_v)
        want = sum(
            mlp_oracle(half, store[f"dec.{role}.out.w1"].data,
                       store[f"dec.{role}.out.b1"].data,
                       store[f"dec.{role}.out.w2"].data,
                       store[f"dec.{role}.out.b2"].data)
            for role in ("subject", "object"))
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_matches_explicit_sum_oracle(self, rng):
        d_v, d_q, m, n = 4, 5, 3, 6
        store = self._store(d_v, d_q, 7, rng)
        attn = rng.uniform(0.01, 0.99, size=(2, m, n))
        values = rng.normal(size=(m, n, d_v))
        out = cross_attend(Tensor(attn.copy()), *dense_rows(values), store, "dec")
        want = np.zeros((m, d_q))
        for r, role in enumerate(("subject", "object")):
            mixed = np.stack([attn[r, j] @ values[j] for j in range(m)])
            want += mlp_oracle(mixed, store[f"dec.{role}.out.w1"].data,
                               store[f"dec.{role}.out.b1"].data,
                               store[f"dec.{role}.out.w2"].data,
                               store[f"dec.{role}.out.b2"].data)
        np.testing.assert_allclose(out.data, want, atol=1e-12)


def make_model(cfg, vocab, seed):
    """A model over the float64-widened ``init_store``, for the oracle tests."""
    return RelationModel(cfg, vocab, widened(init_store(cfg, vocab, seed)))


def expanded_pool_weights(ctx):
    """Each tracklet's (m, l_roi, l_i) weights: its distinct pooling rows
    fanned out to every query through ``ctx.pool_index``."""
    offsets = np.cumsum([0] + [len(rows) for rows in ctx.pool_rows])
    return [rows[ctx.pool_index[:, i] - offsets[i]] for i, rows in enumerate(ctx.pool_rows)]


# Tracklet frame spans in a 40-frame video, against toy_model_config's 6
# anchors; S is the frame count and U the number of distinct pooling rows.
PROJECT_FIRST_SPANS = ((2, 4), (23, 25), (33, 35))  # S=6 < U=9
POOL_FIRST_SPANS = ((0, 20), (12, 37))              # S=45 > U=11
DEDUPED_SPANS = ((0, 4), (3, 8), (10, 16))          # U=8 < S=15 < m*n=18


def value_matrix_case(cfg, vocab, spans):
    """A model with random value-MLP biases and the context and per-frame
    features of one video whose tracklets cover ``spans``."""
    rng = np.random.default_rng(11)
    frame_count = 40
    tracklets = []
    for tid, (t0, t1) in enumerate(spans):
        probs = np.full(len(vocab.objects), 1.0 / len(vocab.objects))
        tracklets.append(Tracklet(
            id=tid, slot=TimeSlot(t0 / frame_count, t1 / frame_count),
            boxes=np.tile([0.1, 0.1, 0.3, 0.3], (t1 - t0, 1)),
            appearance=rng.normal(size=(t1 - t0, 16)), category=0, probs=probs))
    sample = VideoSample(video_id="v", frame_count=frame_count,
                         tracklets=tracklets, gt_objects=[], gt_relations=[])
    model = make_model(cfg, vocab, 3)
    p = "decoder.layer0.value_mlp"
    model.store[f"{p}.b1"].data[:] = rng.normal(size=cfg.mlp_hidden)
    model.store[f"{p}.b2"].data[:] = rng.normal(size=cfg.d_v)
    ctx = model.build_context(sample)
    return model, ctx, model._per_frame_features(ctx)


def rule_args(model, ctx, frames, rows):
    """``project_first``'s arguments for pooling ``rows`` (u_i per tracklet)."""
    cfg = model.cfg
    lengths = [t1 - t0 for t0, t1 in ctx.spans]
    return (sum(rows), sum(u * l for u, l in zip(rows, lengths)), cfg.l_roi,
            frames.shape[0], cfg.d, cfg.mlp_hidden)


def build_toy_model(toy_model_config, vocab_sizes=(5, 6), seed=1):
    from relformer.data import Vocab
    objects = tuple(f"o{i}" for i in range(vocab_sizes[0]))
    predicates = tuple(f"p{i}" for i in range(vocab_sizes[1]))
    return make_model(toy_model_config, Vocab(objects, predicates), seed)


class TestParamShapes:
    def test_matches_the_initialised_store(self, toy_model_config, toy_dataset):
        _, vocab = toy_dataset
        store = init_store(toy_model_config, vocab, 3)
        assert param_shapes(toy_model_config, vocab) == {
            name: t.data.shape for name, t in store.items()}

    def test_tables_are_frozen_and_embeddings_are_used(self, toy_model_config,
                                                       toy_dataset):
        _, vocab = toy_dataset
        table = np.arange(len(vocab.objects) * toy_model_config.d_w, dtype=float
                          ).reshape(len(vocab.objects), toy_model_config.d_w)
        store = init_store(toy_model_config, vocab, 3, embeddings=table)
        np.testing.assert_array_equal(store["tables.classeme"].data, table)
        np.testing.assert_array_equal(store["tables.freq_bias"].data,
                                      np.float32(-np.log(len(vocab.predicates))))
        assert not any(name.startswith("tables.") for name, _ in store.trainable_items())


class TestEncoder:
    def test_single_tracklet_shape(self, toy_model_config, rng):
        model = build_toy_model(toy_model_config)
        out = model.encode_tracklets(Tensor(rng.normal(size=(1, 32))))
        assert out.shape == (1, 32)

    def test_context_of_an_empty_video_is_a_data_error(self, toy_model_config):
        model = build_toy_model(toy_model_config)
        sample = VideoSample(video_id="v", frame_count=8, tracklets=[], gt_objects=[])
        with pytest.raises(DataError, match="no tracklets"):
            model.build_context(sample)

    def test_zero_projections_make_identity(self, toy_model_config, rng):
        model = build_toy_model(toy_model_config)
        for k in range(toy_model_config.L_e):
            model.store[f"encoder.layer{k}.attn.wo"].data[:] = 0.0
            model.store[f"encoder.layer{k}.attn.bo"].data[:] = 0.0
            model.store[f"encoder.layer{k}.ffn.w2"].data[:] = 0.0
            model.store[f"encoder.layer{k}.ffn.b2"].data[:] = 0.0
        x = rng.normal(size=(4, 32))
        out = model.encode_tracklets(Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_permutation_equivariance(self, toy_model_config, rng):
        model = build_toy_model(toy_model_config)
        x = rng.normal(size=(5, 32))
        perm = rng.permutation(5)
        base = model.encode_tracklets(Tensor(x)).data
        permuted = model.encode_tracklets(Tensor(x[perm])).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


class TestFullModel:
    def test_decoder_l1_zero_offsets_keep_anchor_slots(self, toy_dataset, rng):
        """A one-layer decoder pools every tracklet against the fixed anchor
        slots: its RoI weights reproduce the binning oracle on each anchor."""
        cfg = ModelConfig(d=32, d_q=32, d_v=32, d_a=16, d_w=16, l=4, l_roi=7,
                          L_e=1, L_d=1, m_c=3, m_d=2, heads=4, mlp_hidden=32)
        samples, vocab = toy_dataset
        model = make_model(cfg, vocab, 3)
        ctx = model.build_context(samples[0])
        model.forward(ctx)
        frame_count = ctx.sample.frame_count
        for w, span in zip(expanded_pool_weights(ctx), ctx.spans):
            feat = rng.normal(size=(span[1] - span[0], 3))
            for q, (qs, qe) in enumerate(model.anchors):
                want = roi_pool_oracle(feat, span, TimeSlot(qs, qe).frame_span(frame_count),
                                       cfg.l_roi)
                np.testing.assert_allclose(w[q] @ feat, want, atol=1e-12)

    def test_pool_rows_computed_on_first_forward_and_reused(self, toy_model_config,
                                                            toy_dataset):
        samples, vocab = toy_dataset
        model = make_model(toy_model_config, vocab, 3)
        ctx = model.build_context(samples[0])
        assert ctx.pool_rows is None and ctx.pool_index is None
        first = model.forward(ctx)
        rows, index = ctx.pool_rows, ctx.pool_index
        assert len(rows) == len(ctx.spans)
        for w, (t0, t1) in zip(rows, ctx.spans):
            assert w.shape[1:] == (toy_model_config.l_roi, t1 - t0)
            assert 1 <= len(w) <= len(model.anchors)
        assert index.shape == (len(model.anchors), len(ctx.spans))
        assert sorted(set(index.ravel())) == list(range(sum(len(w) for w in rows)))
        again = model.forward(ctx)
        assert ctx.pool_rows is rows and ctx.pool_index is index
        np.testing.assert_array_equal(again.probs.data, first.probs.data)

    def test_output_shapes_at_reference_scale(self, toy_dataset):
        samples, vocab = toy_dataset
        cfg = ModelConfig(d=512, d_q=512, d_v=512, d_a=16, d_w=16, l=4, l_roi=7,
                          L_e=1, L_d=1, m_c=16, m_d=12, heads=8, mlp_hidden=32)
        model = make_model(cfg, vocab, 0)
        ctx = model.build_context(samples[0])
        out = model.forward(ctx)
        n = len(samples[0].tracklets)
        assert out.probs.shape == (192, len(vocab.predicates) + 1)
        assert out.attention.shape == (2, 192, n)

    def test_forward_is_deterministic(self, toy_model_config, toy_dataset):
        samples, vocab = toy_dataset
        model = make_model(toy_model_config, vocab, 3)
        ctx = model.build_context(samples[0])
        a = model.forward(ctx)
        b = model.forward(ctx)
        np.testing.assert_array_equal(a.probs.data, b.probs.data)
        np.testing.assert_array_equal(a.attention.data, b.attention.data)

    def test_tracklet_permutation_permutes_attention_axis(self, toy_model_config,
                                                          toy_dataset):
        samples, vocab = toy_dataset
        sample = samples[0]
        model = make_model(toy_model_config, vocab, 3)
        base = model.forward(model.build_context(sample))

        perm = np.random.default_rng(0).permutation(len(sample.tracklets))
        shuffled = VideoSample(
            video_id=sample.video_id, frame_count=sample.frame_count,
            tracklets=[sample.tracklets[i] for i in perm],
            gt_objects=sample.gt_objects, gt_relations=sample.gt_relations)
        moved = model.forward(model.build_context(shuffled))
        np.testing.assert_allclose(moved.attention.data,
                                   base.attention.data[:, :, perm], atol=1e-9)
        np.testing.assert_allclose(moved.probs.data, base.probs.data, atol=1e-9)

    def test_value_matrix_disjoint_rows_share_constant(self, toy_model_config,
                                                       toy_dataset):
        """A (query, tracklet) pair that does not overlap pools to zero rows, so
        its value row is the value MLP's output at zero input."""
        from relformer.data import Tracklet
        _, vocab = toy_dataset
        rng = np.random.default_rng(8)
        frame_count = 20
        tracklets = []
        for tid, start in enumerate((10, 14)):
            n = 4
            boxes = np.tile([0.1, 0.1, 0.3, 0.3], (n, 1))
            probs = np.zeros(len(vocab.objects))
            probs[0] = 1.0
            tracklets.append(Tracklet(
                id=tid, slot=TimeSlot(start / frame_count, (start + n) / frame_count),
                boxes=boxes, appearance=rng.normal(size=(n, 16)), category=0,
                probs=probs))
        sample = VideoSample(video_id="v", frame_count=frame_count,
                             tracklets=tracklets, gt_objects=[], gt_relations=[])
        model = make_model(toy_model_config, vocab, 3)
        # nonzero biases: disjoint rows become a shared constant, not zero
        model.store["decoder.layer0.value_mlp.b1"].data[:] = 0.3
        model.store["decoder.layer0.value_mlp.b2"].data[:] = -0.1
        ctx = model.build_context(sample)
        per_frame = model._per_frame_features(ctx)
        values = model.build_value_matrix(ctx, per_frame, "decoder.layer0").data
        values = values[ctx.pool_index]
        anchors = model.anchors
        disjoint = (np.maximum(anchors[:, None, 0], ctx.slots[None, :, 0])
                    >= np.minimum(anchors[:, None, 1], ctx.slots[None, :, 1]))
        assert 0 < disjoint.sum() < disjoint.size
        p = "decoder.layer0.value_mlp"
        at_zero = (np.maximum(model.store[f"{p}.b1"].data, 0.0) @ model.store[f"{p}.w2"].data
                   + model.store[f"{p}.b2"].data)
        assert np.abs(at_zero).max() > 0.0
        np.testing.assert_allclose(values[disjoint],
                                   np.tile(at_zero, (disjoint.sum(), 1)), atol=1e-12)
        assert np.abs(values[~disjoint] - at_zero).max(axis=1).min() > 0.0

    @pytest.mark.parametrize("spans,project_first", [
        (PROJECT_FIRST_SPANS, True), (POOL_FIRST_SPANS, False), (DEDUPED_SPANS, False),
    ], ids=["project_first", "pool_first", "deduped_pool_first"])
    def test_value_matrix_matches_per_pair_oracle(self, toy_model_config, toy_dataset,
                                                  spans, project_first):
        _, vocab = toy_dataset
        model, ctx, frames = value_matrix_case(toy_model_config, vocab, spans)
        frame_count, slots, cfg = ctx.sample.frame_count, model.anchors, model.cfg
        p = "decoder.layer0.value_mlp"
        values = model.build_value_matrix(ctx, frames, "decoder.layer0").data
        rows = [len(w) for w in ctx.pool_rows]
        assert values.shape == (sum(rows), cfg.d_v)
        values = values[ctx.pool_index]
        assert ad.project_first(*rule_args(model, ctx, frames, rows)) == project_first

        params = [model.store[f"{p}.{name}"].data for name in ("w1", "b1", "w2", "b2")]
        bounds = np.cumsum([0] + [t1 - t0 for t0, t1 in spans])
        want = np.zeros_like(values)
        for q, (qs, qe) in enumerate(slots):
            q_span = TimeSlot(qs, qe).frame_span(frame_count)
            for i, span in enumerate(spans):
                pooled = roi_pool_oracle(frames.data[bounds[i]:bounds[i + 1]], span,
                                         q_span, cfg.l_roi)
                want[q, i] = mlp_oracle(pooled.reshape(1, -1), *params)[0]
        assert np.abs(values - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradient_reaches_role_projections(self, toy_model_config, toy_dataset):
        samples, vocab = toy_dataset
        model = make_model(toy_model_config, vocab, 3)
        ctx = model.build_context(samples[0])
        out = model.forward(ctx)
        loss = ad.tsum(ad.square(out.probs)) + ad.tsum(ad.square(out.attention))
        [g] = backward(loss, [model.store["decoder.layer0.subject.query_proj"]])
        assert np.abs(g).max() > 0.0


def frozen(store: ParamStore) -> ParamStore:
    """``store``'s tensors with no entry requiring a gradient, as a loaded
    checkpoint holds them."""
    out = ParamStore()
    for name, t in store.items():
        out.add(name, t.data, trainable=False)
    return out


class TestDecoderPrefix:
    """A frozen model computes the decoder's video-independent start once,
    when it is built; a trainable store computes it in every forward."""

    def test_frozen_model_equals_the_trainable_store_bit_for_bit(self, toy_model_config,
                                                                 toy_dataset):
        samples, vocab = toy_dataset
        store = init_store(toy_model_config, vocab, 3)
        trainable = RelationModel(toy_model_config, vocab, store)
        fixed = RelationModel(toy_model_config, vocab, frozen(store))
        for sample in samples:
            want = trainable.forward(trainable.build_context(sample))
            got = fixed.forward(fixed.build_context(sample))
            assert want.probs._edges and not got.probs.requires_grad
            assert got.probs.data.tobytes() == want.probs.data.tobytes()
            assert got.attention.data.tobytes() == want.attention.data.tobytes()
            assert got.links.tobytes() == want.links.tobytes()

    def test_prefix_is_computed_once_per_frozen_model(self, toy_model_config, toy_dataset,
                                                      monkeypatch):
        samples, vocab = toy_dataset
        calls = []
        original = RelationModel._decoder_prefix

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(RelationModel, "_decoder_prefix", counting)
        store = init_store(toy_model_config, vocab, 3)
        fixed = RelationModel(toy_model_config, vocab, frozen(store))
        trainable = RelationModel(toy_model_config, vocab, store)
        assert calls == [fixed]
        for _ in range(2):
            for sample in samples:
                fixed.forward(fixed.build_context(sample))
        assert calls == [fixed]
        for sample in samples:
            trainable.forward(trainable.build_context(sample))
        assert calls == [fixed] + [trainable] * len(samples)

    def test_threads_share_the_prefix_and_keep_the_bytes(self, toy_model_config,
                                                         toy_dataset):
        """More workers than cores, switching often, read one frozen model's
        prefix at once; each video's outputs equal the sequential run's."""
        samples, vocab = toy_dataset
        fixed = RelationModel(toy_model_config, vocab,
                              frozen(init_store(toy_model_config, vocab, 3)))

        def run(sample):
            out = fixed.forward(fixed.build_context(sample))
            return out.probs.data.tobytes() + out.attention.data.tobytes()

        want = [run(s) for s in samples]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(run, samples * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 4


class TestFloat32Forward:
    def test_outputs_stay_within_the_measured_tolerance_of_float64(
            self, toy_model_config, toy_dataset):
        """One float32 store against the same values widened to float64, over
        every toy video. Measured max |delta| over init seeds 0-5: probs
        4.3e-8 to 7.5e-8, attention 2.3e-8 to 4.1e-8 (seed 3: 4.3e-8 and
        3.1e-8). The bound is two float32 epsilons, 2.4e-7."""
        samples, vocab = toy_dataset
        store = init_store(toy_model_config, vocab, 3)
        narrow = RelationModel(toy_model_config, vocab, store)
        wide = RelationModel(toy_model_config, vocab, widened(store))
        assert (narrow.store.dtype, wide.store.dtype) == (np.float32, np.float64)
        tol = 2 * np.finfo(np.float32).eps
        for sample in samples:
            a = narrow.forward(narrow.build_context(sample))
            b = wide.forward(wide.build_context(sample))
            assert a.probs.data.dtype == a.attention.data.dtype == np.float32
            assert np.abs(a.probs.data - b.probs.data).max() <= tol
            assert np.abs(a.attention.data - b.attention.data).max() <= tol


class TestValueMatrixDedupe:
    """The value MLP runs once per distinct pooling row. Fanned out through
    ``ctx.pool_index``, the rows equal the same pooled MLP over every
    (query, tracklet) pair."""

    def expanded_values(self, model, ctx, frames, prefix="decoder.layer0"):
        """(m, n, d_v) from ``pooled_mlp_forward`` over the m*n expanded rows."""
        out = pooled_mlp_forward(model.store, f"{prefix}.value_mlp", frames,
                                 expanded_pool_weights(ctx))
        return ad.transpose(ad.reshape(out, (len(ctx.spans), len(model.anchors), -1)),
                            (1, 0, 2))

    @pytest.mark.parametrize("spans,project_first", [
        (PROJECT_FIRST_SPANS, True), (POOL_FIRST_SPANS, False)],
        ids=["project_first", "pool_first"])
    def test_values_equal_the_expanded_pairs(self, toy_model_config, toy_dataset, spans,
                                             project_first):
        _, vocab = toy_dataset
        model, ctx, frames = value_matrix_case(toy_model_config, vocab, spans)
        values = model.build_value_matrix(ctx, frames, "decoder.layer0").data
        values = values[ctx.pool_index]
        unique = [len(w) for w in ctx.pool_rows]
        dense = [len(model.anchors)] * len(ctx.spans)
        assert sum(unique) < sum(dense)
        # both paths contract in the same order, so they agree bit for bit
        for rows in (unique, dense):
            assert ad.project_first(*rule_args(model, ctx, frames, rows)) == project_first
        assert np.array_equal(values, self.expanded_values(model, ctx, frames).data)

    def test_dedupe_can_choose_pool_first(self, toy_model_config, toy_dataset):
        _, vocab = toy_dataset
        model, ctx, frames = value_matrix_case(toy_model_config, vocab, DEDUPED_SPANS)
        model.forward(ctx)
        unique = [len(w) for w in ctx.pool_rows]
        assert not ad.project_first(*rule_args(model, ctx, frames, unique))
        dense = [len(model.anchors)] * len(ctx.spans)
        assert ad.project_first(*rule_args(model, ctx, frames, dense))

    @pytest.mark.parametrize("spans", [PROJECT_FIRST_SPANS, POOL_FIRST_SPANS,
                                       DEDUPED_SPANS],
                             ids=["project_first", "pool_first", "deduped_pool_first"])
    def test_gradients_equal_the_expanded_pairs(self, toy_model_config, toy_dataset,
                                                spans):
        """The fan-out's VJP sums the gradients of a row's copies in another
        order than the dense path, so the two agree to rounding."""
        _, vocab = toy_dataset
        model, ctx, frames = value_matrix_case(toy_model_config, vocab, spans)
        frames = Tensor(frames.data, requires_grad=True)
        p = "decoder.layer0.value_mlp"
        params = [frames] + [model.store[f"{p}.{name}"] for name in ("w1", "b1", "w2", "b2")]
        scale = np.random.default_rng(5).normal(
            size=(len(model.anchors), len(ctx.spans), toy_model_config.d_v))

        def grads(values):
            return backward(ad.tsum(ad.mul(ad.square(values), scale)), params)

        deduped = grads(model.build_value_matrix(ctx, frames, "decoder.layer0")
                        [ctx.pool_index])
        expanded = grads(self.expanded_values(model, ctx, frames))
        for got, want in zip(deduped, expanded):
            assert np.abs(want).max() > 0.0
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("grid", [(3, 2), (16, 12)], ids=["toy_grid", "grid_16x12"])
    def test_key_count_equals_unique_weight_rows(self, toy_model_config, toy_dataset,
                                                 grid):
        """The (f0, f1) key finds exactly the distinct rows of the dense
        weights, each slot's built on its own, and fanning them out rebuilds
        those weights bit for bit."""
        samples, vocab = toy_dataset
        cfg = dataclasses.replace(toy_model_config, m_c=grid[0], m_d=grid[1])
        model = make_model(cfg, vocab, 3)
        slots, total, pairs = model.anchors, 0, 0
        for sample in samples:
            ctx = model.build_context(sample)
            for (s, e), (t0, t1) in zip(ctx.slots, ctx.spans):
                args = ((s, e), (t0, t1), slots, sample.frame_count, cfg.l_roi,
                        model.store.dtype)
                dense = np.concatenate([track_pool_rows(*args[:2], slots[q:q + 1], *args[3:])[0]
                                        for q in range(len(slots))])
                rows, inverse = track_pool_rows(*args)
                assert len(rows) == len(np.unique(dense.reshape(len(slots), -1), axis=0))
                assert np.array_equal(rows[inverse], dense)
                total, pairs = total + len(rows), pairs + len(slots)
        assert total < pairs


def wide_feature_case(toy_dataset):
    """A model with d_a = 256 and one 40-frame video of three tracklets with
    random float32 appearance rows."""
    _, vocab = toy_dataset
    d_a = 256
    cfg = ModelConfig(d=32, d_q=32, d_v=32, d_a=d_a, d_w=16, l=4, l_roi=7,
                      L_e=1, L_d=2, m_c=3, m_d=2, heads=4, mlp_hidden=32)
    rng = np.random.default_rng(17)
    frame_count = 40
    probs = np.full(len(vocab.objects), 1.0 / len(vocab.objects))
    tracklets = [Tracklet(id=tid, slot=TimeSlot(t0 / frame_count, t1 / frame_count),
                          boxes=np.tile([0.1, 0.1, 0.3, 0.3], (t1 - t0, 1)),
                          appearance=rng.normal(size=(t1 - t0, d_a)).astype(np.float32),
                          category=0, probs=probs)
                 for tid, (t0, t1) in enumerate(((0, 30), (5, 40), (12, 38)))]
    sample = VideoSample(video_id="v", frame_count=frame_count,
                         tracklets=tracklets, gt_objects=[], gt_relations=[])
    return make_model(cfg, vocab, 3), sample


class TestFeatureWidening:
    """Appearance rows are held once, as float32: a context keeps no copy,
    and a forward over a float64 store (``make_model``'s) widens them inside
    its first matmul, exactly."""

    def test_build_context_allocates_less_than_the_float32_features(self, toy_dataset):
        import tracemalloc
        model, sample = wide_feature_case(toy_dataset)
        frames = sum(t.length for t in sample.tracklets)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ctx = model.build_context(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctx.spatial.shape == (frames, 8)
        assert peak - start < frames * model.cfg.d_a * 4

    def test_forward_and_gradients_equal_those_of_features_widened_beforehand(
            self, toy_dataset):
        model, sample = wide_feature_case(toy_dataset)
        widened = np.concatenate([t.appearance.astype(np.float64)
                                  for t in sample.tracklets])

        class Prewidened(RelationModel):
            def _per_frame_features(self, ctx):
                return init_tracklet_feature(self.store, ad.constant(widened),
                                             ad.constant(ctx.spatial))

        params = model.store.trainable_tensors()
        results = []
        for runner in (model, Prewidened(model.cfg, model.vocab, model.store)):
            out = runner.forward(runner.build_context(sample))
            grads = backward(ad.tsum(out.probs), params)
            results.append((out.attention.data, out.probs.data, grads))
        (attn_a, probs_a, grads_a), (attn_b, probs_b, grads_b) = results
        assert attn_a.tobytes() == attn_b.tobytes()
        assert probs_a.tobytes() == probs_b.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(grads_a, grads_b))
