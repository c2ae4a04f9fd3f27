import weakref

import numpy as np
import pytest

from relformer import autodiff as ad
from relformer import training
from relformer.config import ModelConfig, TrainConfig
from relformer.data import assign_tracklets_to_gt
from relformer.errors import DataError, NumericsError
from relformer.head import infer_triplets
from relformer.metrics import evaluate
from relformer.model import RelationModel, init_store
from relformer.nn import Adam
from relformer.synth import SynthConfig, synth_generate
from relformer.training import (BCE_CLAMP, GtTargets, build_gt_predicates, cost_matrix,
                                hungarian, total_loss, train_loop, video_loss)

from oracles import (finite_difference, hungarian_brute_force, matching_cost_oracle,
                     set_loss_oracle)


def random_targets(rng, k, n, n_rel):
    """k GT relations with random predicates and link targets."""
    return GtTargets(predicates=rng.integers(n_rel, size=k),
                     links=(rng.uniform(size=(2, k, n)) < 0.3).astype(np.float64))


def random_prediction(rng, m, n, n_rel):
    probs = rng.dirichlet(np.ones(n_rel + 1), size=m)
    probs[0, 0] = 0.0  # exercises the probability clamp
    attn = rng.uniform(0.0, 1.0, size=(2, m, n))
    attn[0, 0, 0], attn[1, 0, 0] = 0.0, 1.0  # exercise the BCE clamp at both ends
    return probs, attn


def clamped_log(probs):
    return ad.log(ad.clip(ad.constant(probs), BCE_CLAMP, 1.0))


class TestCostMatrix:
    @pytest.mark.parametrize("m,n,k", [(1, 1, 1), (4, 3, 2), (6, 5, 6), (5, 2, 0)])
    def test_matches_per_pair_oracle(self, rng, m, n, k):
        n_rel = 4
        gt = random_targets(rng, k, n, n_rel)
        probs, attn = random_prediction(rng, m, n, n_rel)
        cost = cost_matrix(gt, clamped_log(probs), ad.constant(attn), 1.5, 30.0)
        assert cost.shape == (k, m)
        for j in range(k):
            for q in range(m):
                want = matching_cost_oracle(gt.predicates[j], gt.links[:, j], probs[q],
                                            attn[:, q, :], 1.5, 30.0)
                np.testing.assert_allclose(cost.data[j, q], want, rtol=1e-12, atol=1e-12)


class TestBuildTargets:
    def test_links_follow_the_tracklet_assignment(self, toy_dataset):
        samples, _ = toy_dataset
        for sample in samples:
            assignment = assign_tracklets_to_gt(sample)
            gt = build_gt_predicates(sample, assignment, 48)
            k, n = len(sample.gt_relations), len(sample.tracklets)
            assert gt.links.shape == (2, k, n)
            assert list(gt.predicates) == [rel.predicate for rel in sample.gt_relations]
            for j, rel in enumerate(sample.gt_relations):
                for row, gt_id in ((0, rel.subject_gt_id), (1, rel.object_gt_id)):
                    linked = {sample.tracklets[i].id for i in np.flatnonzero(gt.links[row, j])}
                    assert linked == set(assignment[gt_id])

    def test_more_relations_than_queries_is_a_data_error(self, toy_dataset):
        samples, _ = toy_dataset
        sample = max(samples, key=lambda s: len(s.gt_relations))
        k = len(sample.gt_relations)
        with pytest.raises(DataError, match=f"{k} GT relations exceed"):
            build_gt_predicates(sample, assign_tracklets_to_gt(sample), k - 1)


class TestHungarian:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_optimal_on_random_costs(self, rng, m):
        cost = rng.uniform(0.0, 10.0, size=(m, m))
        sigma = hungarian(cost)
        assert sorted(sigma) == list(range(m))
        got = cost[np.arange(m), sigma].sum()
        assert abs(got - hungarian_brute_force(cost)) <= 1e-12 * max(1.0, got)

    @pytest.mark.parametrize("m,k", [(4, 0), (5, 2), (6, 3), (3, 2), (6, 2), (2, 0)])
    def test_optimal_with_background_rows(self, rng, m, k):
        """A (k, m) assignment costs the optimum of the square problem whose
        m - k extra rows are zero-cost background rows."""
        cost = rng.uniform(0.0, 10.0, size=(k, m))
        sigma = hungarian(cost)
        assert len(sigma) == k and len(set(sigma)) == k
        assert all(0 <= q < m for q in sigma)
        square = np.zeros((m, m))
        square[:k] = cost
        got = cost[np.arange(k), sigma].sum()
        assert abs(got - hungarian_brute_force(square)) <= 1e-12 * max(1.0, got)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_is_a_numerics_error(self, bad):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(NumericsError, match="finite"):
            hungarian(cost)



class TestTotalLoss:
    @pytest.mark.parametrize("m,n,k", [(1, 1, 1), (5, 3, 2), (6, 4, 6), (4, 2, 0)])
    def test_matches_the_set_loss_oracle(self, rng, m, n, k):
        n_rel = 3
        gt = random_targets(rng, k, n, n_rel)
        probs, attn = random_prediction(rng, m, n, n_rel)
        probs[-1, -1] = 0.0  # the clamp on the no-relation term
        log_probs = clamped_log(probs)
        cost = cost_matrix(gt, log_probs, ad.constant(attn), 1.5, 30.0)
        sigma = hungarian(cost.data)
        loss = total_loss(cost, log_probs, sigma, 1.5)
        want = set_loss_oracle(gt.predicates, gt.links, probs, attn, sigma, 1.5, 30.0)
        np.testing.assert_allclose(loss.item(), want, rtol=1e-12)


def fixed_sigma_loss(model, ctx, gt, sigma):
    output = model.forward(ctx)
    log_probs = ad.log(ad.clip(output.probs, BCE_CLAMP, 1.0))
    cost = cost_matrix(gt, log_probs, output.attention, 1.0, 30.0)
    return total_loss(cost, log_probs, sigma, 1.0)


class TestLossGradient:
    def test_full_loss_matches_finite_differences(self, toy_dataset):
        """The gradient of one video's loss, through the encoder, decoder and
        head, against central differences at 3 coordinates of every trainable
        tensor. The assignment is held fixed, and every parameter is jittered
        so that no ReLU input sits on its kink (zero biases put zero-input
        RoI rows exactly there)."""
        samples, vocab = toy_dataset
        sample = samples[0]
        cfg = ModelConfig(d=8, d_q=8, d_v=8, d_a=16, d_w=4, l=2, l_roi=3,
                          L_e=1, L_d=1, m_c=4, m_d=2, heads=2, mlp_hidden=8)
        store = init_store(cfg, vocab, 11)
        rng = np.random.default_rng(7)
        for _, t in store.trainable_items():
            t.data += rng.normal(scale=0.05, size=t.shape)
        model = RelationModel(cfg, vocab, store)
        ctx = model.build_context(sample)
        gt = build_gt_predicates(sample, assign_tracklets_to_gt(sample), model.anchors.count)
        assert len(gt.predicates) > 0
        with_graph = video_loss(model, ctx, gt, 1.0, 30.0)
        output = model.forward(ctx)
        log_probs = ad.log(ad.clip(output.probs, BCE_CLAMP, 1.0))
        sigma = hungarian(cost_matrix(gt, log_probs, output.attention, 1.0, 30.0).data)
        loss = fixed_sigma_loss(model, ctx, gt, sigma)
        assert loss.item() == with_graph.item()

        # A central difference at step h carries rounding noise of about one
        # ulp of the loss over h (~3e-8 here); allow four, plus 1e-6 relative.
        h = 1e-6
        noise = 4 * np.spacing(loss.item()) / h
        items = store.trainable_items()
        grads = ad.backward(loss, [t for _, t in items])
        for (name, t), g in zip(items, grads):
            coords = rng.choice(t.data.size, size=min(3, t.data.size), replace=False)
            numeric = finite_difference(
                lambda: fixed_sigma_loss(model, ctx, gt, sigma).item(), t.data, coords, h=h)
            for c in coords:
                exact = g.reshape(-1)[c]
                assert abs(numeric[c] - exact) <= 1e-6 * abs(exact) + noise, (name, int(c))


class TestGradientCoverage:
    def test_every_trainable_tensor_gets_a_gradient(self, toy_model_config, toy_dataset):
        """Guards against parameters that never train: one video's loss must
        reach every trainable tensor with an entry of magnitude at least 1e-10.
        A parameter whose exact gradient is zero (such as an attention key
        bias, which softmax cancels) only picks up rounding noise, far below
        this floor."""
        samples, vocab = toy_dataset
        sample = samples[0]
        store = init_store(toy_model_config, vocab, 3)
        model = RelationModel(toy_model_config, vocab, store)
        assignment = assign_tracklets_to_gt(sample)
        gt = build_gt_predicates(sample, assignment, model.anchors.count)
        assert len(gt.predicates) > 0
        loss = video_loss(model, model.build_context(sample), gt, 1.0, 30.0)
        names = [name for name, _ in model.store.trainable_items()]
        grads = ad.backward(loss, model.store.trainable_tensors())
        dead = [name for name, g in zip(names, grads) if np.abs(g).max() < 1e-10]
        assert dead == []


class TestGraphMemory:
    def test_no_node_holds_a_pair_value_matrix(self, toy_model_config, toy_dataset):
        """Cross-attention reads the distinct value rows through their index,
        so no node of a training graph holds an (m, n, d_v) array."""
        import dataclasses
        cfg = dataclasses.replace(toy_model_config, m_c=16, m_d=12, d_v=24)
        samples, vocab = toy_dataset
        sample = samples[0]
        model = RelationModel(cfg, vocab, init_store(cfg, vocab, 3))
        m, n = model.anchors.count, len(sample.tracklets)
        gt = build_gt_predicates(sample, assign_tracklets_to_gt(sample), m)
        loss = video_loss(model, model.build_context(sample), gt, 1.0, 30.0)
        seen, todo, shapes = set(), [loss], set()
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                shapes.add(node.shape)
                todo.extend(node._parents)
        assert (2, m, n) in shapes and (m, cfg.d_v) in shapes  # the walk reached cross-attention
        assert (m, n, cfg.d_v) not in shapes


class TestOverfit:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_video_is_learned_exactly(self, tmp_path, seed):
        """The whole pipeline can fit one video: 150 Adam steps take the loss
        below 5% of its start and the train-set RelDet mAP to 1 (it starts at
        0.08 or less). Measured at these settings, the loss fell 123 -> 1.75,
        145 -> 0.007 and 46 -> 0.002 for seeds 1, 2 and 3."""
        samples, vocab = synth_generate(SynthConfig(
            videos=1, frame_count=16, d_a=8, object_categories=4, objects_min=3,
            objects_max=3, distractors=1, max_relations=6), seed=seed)
        cfg = ModelConfig(d=16, d_q=16, d_v=16, d_a=8, d_w=8, l=2, l_roi=3, L_e=1, L_d=2,
                          m_c=4, m_d=2, heads=2, mlp_hidden=16)
        model = RelationModel(cfg, vocab, init_store(cfg, vocab, 0))
        result = train_loop(samples, model, TrainConfig(lr=1e-2, batch_size=1, epochs=150),
                            str(tmp_path), seed=0)
        assert result.epoch_losses[-1] < 0.05 * result.epoch_losses[0]
        predictions = {}
        for sample in samples:
            out = model.forward(model.build_context(sample))
            predictions[sample.video_id] = infer_triplets(
                out.probs.data, out.links, list(sample.tracklets), 10)
        assert evaluate(predictions, samples).reldet_map == 1.0


class TestTrainLoop:
    def train(self, toy_model_config, toy_dataset, tmp_path):
        """One epoch over 4 videos at batch 3."""
        samples, vocab = toy_dataset
        model = RelationModel(toy_model_config, vocab, init_store(toy_model_config, vocab, 0))
        train_loop(samples[:4], model, TrainConfig(lr=1e-3, batch_size=3, epochs=1),
                   str(tmp_path), seed=0)

    def test_each_video_graph_is_freed_before_the_next_forward(
            self, toy_model_config, toy_dataset, tmp_path, monkeypatch):
        """The decoder's last role attention is mid-graph: the cost and the
        loss are built on it. Each video's backward must release it before
        the next video's forward, also within a batch."""
        alive_at_forward = []
        refs = []
        forward = RelationModel.forward

        def recording_forward(model, ctx):
            alive_at_forward.append(sum(ref() is not None for ref in refs))
            out = forward(model, ctx)
            refs.append(weakref.ref(out.attention.data))
            return out

        monkeypatch.setattr(RelationModel, "forward", recording_forward)
        self.train(toy_model_config, toy_dataset, tmp_path)
        assert alive_at_forward == [0, 0, 0, 0]
        assert all(ref() is None for ref in refs)

    def test_non_finite_video_loss_names_epoch_step_and_video(
            self, toy_model_config, toy_dataset, tmp_path, monkeypatch):
        seen = []

        def second_is_inf(model, ctx, *args):
            seen.append(ctx.sample.video_id)
            loss = video_loss(model, ctx, *args)
            return ad.mul(loss, np.inf) if len(seen) == 2 else loss

        monkeypatch.setattr(training, "video_loss", second_is_inf)
        with pytest.raises(NumericsError) as err:
            self.train(toy_model_config, toy_dataset, tmp_path)
        assert len(seen) == 2
        assert f"non-finite loss at epoch 0 step 0 video {seen[1]};" in str(err.value)

    def test_non_finite_matching_cost_names_epoch_step_and_video(
            self, toy_model_config, toy_dataset, tmp_path, monkeypatch):
        """NaN probabilities make the matching cost NaN, and Hungarian
        matching stops before the loss exists."""
        seen = []
        forward = RelationModel.forward

        def second_is_nan(model, ctx):
            seen.append(ctx.sample.video_id)
            out = forward(model, ctx)
            if len(seen) == 2:
                out.probs.data[:] = np.nan
            return out

        monkeypatch.setattr(RelationModel, "forward", second_is_nan)
        with pytest.raises(NumericsError) as err:
            self.train(toy_model_config, toy_dataset, tmp_path)
        assert len(seen) == 2
        assert str(err.value) == (f"hungarian needs finite costs at epoch 0 step 0 "
                                  f"video {seen[1]}; aborting")

    def test_non_finite_gradient_names_the_tensor(
            self, toy_model_config, toy_dataset, tmp_path, monkeypatch):
        """sqrt(0 * w) adds 0 to the loss and NaN to the gradient of w."""
        def nan_gradient(model, ctx, *args):
            w = model.store["head.classify.w1"]
            return video_loss(model, ctx, *args) + ad.tsum(ad.sqrt(ad.mul(w, 0.0)))

        monkeypatch.setattr(training, "video_loss", nan_gradient)
        with pytest.raises(NumericsError,
                           match="non-finite gradient head.classify.w1 at epoch 0 step 0"), \
                np.errstate(divide="ignore", invalid="ignore"):
            self.train(toy_model_config, toy_dataset, tmp_path)

    def test_non_finite_parameter_after_adam_names_the_tensor(
            self, toy_model_config, toy_dataset, tmp_path, monkeypatch):
        class Overflowing(Adam):
            def step(self, store, grads):
                super().step(store, grads)
                if self.t == 2:
                    store["decoder.query_embed"].data[0, 0] = np.inf

        monkeypatch.setattr(training, "Adam", Overflowing)
        with pytest.raises(NumericsError,
                           match="non-finite parameter decoder.query_embed at epoch 0 step 1"):
            self.train(toy_model_config, toy_dataset, tmp_path)
