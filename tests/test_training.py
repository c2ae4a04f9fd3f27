import numpy as np
import pytest

from relformer import autodiff as ad
from relformer.data import assign_tracklets_to_gt
from relformer.errors import NumericsError, UsageError
from relformer.model import RelationModel
from relformer.training import (GtPredicate, build_gt_predicates, cost_matrix, hungarian,
                                video_loss)

from oracles import hungarian_brute_force, matching_cost_oracle


def random_gt_set(rng, m, n, n_rel, live):
    """``live`` real GT entries with random link targets, padded to m with background."""
    entries = [GtPredicate(predicate=int(rng.integers(n_rel)),
                           attention=(rng.uniform(size=(2, n)) < 0.3).astype(np.float64))
               for _ in range(live)]
    background = GtPredicate(predicate=None, attention=np.zeros((2, n)))
    return entries + [background] * (m - live)


def random_prediction(rng, m, n, n_rel):
    probs = rng.dirichlet(np.ones(n_rel + 1), size=m)
    probs[0, 0] = 0.0  # exercises the probability clamp
    attn = rng.uniform(0.0, 1.0, size=(2, m, n))
    attn[0, 0, 0], attn[1, 0, 0] = 0.0, 1.0  # exercise the BCE clamp at both ends
    return probs, attn


class TestCostMatrix:
    @pytest.mark.parametrize("m,n,live", [(1, 1, 1), (4, 3, 2), (6, 5, 6), (5, 2, 0)])
    def test_matches_per_pair_oracle(self, rng, m, n, live):
        n_rel = 4
        gt_set = random_gt_set(rng, m, n, n_rel, live)
        probs, attn = random_prediction(rng, m, n, n_rel)
        cost = cost_matrix(gt_set, probs, attn, 1.5, 30.0)
        assert cost.shape == (m, m)
        for j, gt in enumerate(gt_set):
            for q in range(m):
                want = matching_cost_oracle(gt.predicate, gt.attention, probs[q],
                                            attn[:, q, :], 1.5, 30.0)
                np.testing.assert_allclose(cost[j, q], want, rtol=1e-12, atol=1e-12)


class TestHungarian:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_optimal_on_random_costs(self, rng, m):
        cost = rng.uniform(0.0, 10.0, size=(m, m))
        sigma = hungarian(cost)
        assert sorted(sigma) == list(range(m))
        got = cost[np.arange(m), sigma].sum()
        assert abs(got - hungarian_brute_force(cost)) <= 1e-12 * max(1.0, got)

    @pytest.mark.parametrize("m,live", [(4, 0), (5, 2), (6, 3)])
    def test_optimal_with_background_rows(self, rng, m, live):
        gt_set = random_gt_set(rng, m, 3, 4, live)
        probs, attn = random_prediction(rng, m, 3, 4)
        cost = cost_matrix(gt_set, probs, attn, 1.0, 30.0)
        assert np.all(cost[live:] == 0.0)
        sigma = hungarian(cost)
        assert sorted(sigma) == list(range(m))
        got = cost[np.arange(m), sigma].sum()
        assert abs(got - hungarian_brute_force(cost)) <= 1e-12 * max(1.0, got)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_is_a_numerics_error(self, bad):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(NumericsError, match="finite"):
            hungarian(cost)

    def test_non_square_cost_is_a_usage_error(self):
        with pytest.raises(UsageError, match="square"):
            hungarian(np.ones((2, 3)))


class TestGradientCoverage:
    def test_every_trainable_tensor_gets_a_gradient(self, toy_model_config, toy_dataset):
        """Guards against parameters that never train: one video's loss must
        reach every trainable tensor with an entry of magnitude at least 1e-10.
        A parameter whose exact gradient is zero (such as an attention key
        bias, which softmax cancels) only picks up rounding noise, far below
        this floor."""
        samples, vocab = toy_dataset
        sample = samples[0]
        model = RelationModel(toy_model_config, vocab, seed=3)
        assignment, _ = assign_tracklets_to_gt(sample)
        gt_set = build_gt_predicates(sample, assignment, model.anchors.count)
        assert any(not g.is_background for g in gt_set)
        loss, _ = video_loss(model, model.build_context(sample), gt_set, 1.0, 30.0)
        names = [name for name, _ in model.store.trainable_items()]
        grads = ad.backward(loss, model.store.trainable_tensors())
        dead = [name for name, g in zip(names, grads) if np.abs(g).max() < 1e-10]
        assert dead == []
