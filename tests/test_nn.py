import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relformer import autodiff as ad
from relformer.autodiff import Tensor, backward
from relformer.errors import UsageError
from relformer.nn import (Adam, ParamStore, attention_shapes, clip_grad_norm, init_params,
                          layer_norm, mlp_forward, mlp_shapes, multi_head_attention,
                          self_attention_block, self_attention_block_shapes)

from oracles import (adam_scalar_oracle, layer_norm_oracle, mlp_oracle,
                     slow_attention_oracle, softmax_extended_oracle)


class TestParamStore:
    def test_sorted_iteration_and_duplicates(self):
        store = ParamStore()
        store.add("b.x", np.zeros(1))
        store.add("a.y", np.zeros(1))
        assert store.names() == ["a.y", "b.x"]
        with pytest.raises(UsageError, match="already registered"):
            store.add("a.y", np.zeros(1))

    def test_buffers_are_not_trainable(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        store.add("table", np.zeros(2), trainable=False)
        assert [n for n, _ in store.trainable_items()] == ["w"]


class TestInitParams:
    def test_rule_per_name_and_shape(self, rng):
        shapes = {"a.query_embed": (3, 2), "a.w": (4, 2), "a.g": (2,), "a.b": (2,),
                  "tables.t": (3, 2), "tables.given": (2, 2, 2)}
        given = {"tables.given": np.full((2, 2, 2), 7.0)}
        store = init_params(shapes, np.random.default_rng(4), given)
        draws = np.random.default_rng(4)
        np.testing.assert_array_equal(store["a.query_embed"].data,
                                      draws.normal(0.0, 0.02, size=(3, 2)))
        np.testing.assert_array_equal(store["a.w"].data,
                                      draws.uniform(-0.5, 0.5, size=(4, 2)))
        np.testing.assert_array_equal(store["a.g"].data, np.ones(2))
        np.testing.assert_array_equal(store["a.b"].data, np.zeros(2))
        np.testing.assert_array_equal(store["tables.t"].data,
                                      draws.normal(0.0, 1.0, size=(3, 2)))
        np.testing.assert_array_equal(store["tables.given"].data, given["tables.given"])
        assert [n for n, _ in store.trainable_items()] == ["a.b", "a.g", "a.query_embed",
                                                           "a.w"]


class TestMlp:
    def _make(self, dims, rng, prefix="mlp"):
        return init_params(mlp_shapes(prefix, *dims), rng)

    def test_zero_params_annihilate(self, rng):
        store = self._make((3, 5, 2), rng)
        for name in ("mlp.w1", "mlp.w2", "mlp.b1", "mlp.b2"):
            store[name].data[:] = 0.0
        out = mlp_forward(store, "mlp", Tensor(rng.normal(size=(4, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_identity_affines_pass_nonnegative_input(self):
        store = ParamStore()
        store.add("mlp.w1", np.eye(3))
        store.add("mlp.b1", np.zeros(3))
        store.add("mlp.w2", np.eye(3))
        store.add("mlp.b2", np.zeros(3))
        x = np.array([[0.0, 1.5, 2.0], [3.0, 0.0, 0.5]])
        out = mlp_forward(store, "mlp", Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_random_mlp_matches_loop_oracle(self, rng):
        store = self._make((3, 5, 2), rng)
        x = rng.normal(size=(6, 3))
        out = mlp_forward(store, "mlp", Tensor(x))
        expected = mlp_oracle(x, store["mlp.w1"].data, store["mlp.b1"].data,
                              store["mlp.w2"].data, store["mlp.b2"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_leading_dims_preserved(self, rng):
        store = self._make((3, 4, 2), rng)
        out = mlp_forward(store, "mlp", Tensor(rng.normal(size=(2, 5, 3))))
        assert out.shape == (2, 5, 2)

    def test_graph_free_twin_matches(self, rng):
        """Frozen parameters and a constant input record no graph, and the
        forward values are bitwise those of the graph-building run."""
        store = self._make((4, 6, 3), rng)
        frozen = ParamStore()
        for name, t in store.items():
            frozen.add(name, t.data.copy(), trainable=False)
        x = rng.normal(size=(5, 4))
        with_graph = mlp_forward(store, "mlp", Tensor(x))
        graph_free = mlp_forward(frozen, "mlp", Tensor(x))
        assert with_graph.requires_grad and not graph_free.requires_grad
        np.testing.assert_array_equal(graph_free.data, with_graph.data)

    def test_deterministic_function_of_inputs(self, rng):
        store = self._make((3, 5, 2), rng)
        x = rng.normal(size=(4, 3))
        a = mlp_forward(store, "mlp", Tensor(x)).data
        b = mlp_forward(store, "mlp", Tensor(x)).data
        np.testing.assert_array_equal(a, b)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row_kept(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_random_rows_match_formula_oracle(self, rng):
        x = rng.normal(size=(5, 8))
        gain = rng.uniform(0.5, 2.0, size=8)
        bias = rng.normal(size=8)
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps=1e-5)
        np.testing.assert_allclose(out.data, layer_norm_oracle(x, gain, bias, 1e-5),
                                   atol=1e-12)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12)
           .filter(lambda row: max(row) - min(row) > 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_unit_gain_rows_are_standardized(self, row):
        d = len(row)
        out = layer_norm(Tensor(np.array([row])), Tensor(np.ones(d)),
                         Tensor(np.zeros(d)), eps=1e-12).data[0]
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6


class TestSoftmax:
    def test_uniform_row(self):
        out = ad.softmax(Tensor(np.zeros((1, 4))), axis=-1)
        np.testing.assert_allclose(out.data, 0.25)

    def test_stabilized_against_overflow(self):
        out = ad.softmax(Tensor(np.array([[1000.0, 0.0]])), axis=-1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(out.data[0, 1], 0.0, atol=1e-12)

    def test_random_rows_match_extended_precision_oracle(self, rng):
        x = rng.normal(scale=5.0, size=(7, 9))
        out = ad.softmax(Tensor(x), axis=-1)
        for i in range(7):
            np.testing.assert_allclose(out.data[i], softmax_extended_oracle(x[i]),
                                       atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_forward_bits_equal_the_composed_ops(self, rng, axis):
        """The fused node runs the max shift, exp, sum and divide of the
        composed ops, so it gives their bits."""
        x = rng.normal(scale=5.0, size=(4, 6, 5))
        e = ad.exp(Tensor(x) - x.max(axis=axis, keepdims=True))
        want = e / ad.tsum(e, axis=axis, keepdims=True)
        assert np.array_equal(ad.softmax(Tensor(x), axis=axis).data, want.data)

    @given(st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = ad.softmax(Tensor(np.array([row])), axis=-1)
        assert abs(out.data.sum() - 1.0) <= 1e-9


class TestAttention:
    def _block(self, d, rng, prefix="blk", hidden=None):
        return init_params(self_attention_block_shapes(prefix, d, hidden or d), rng)

    def test_single_token_attends_itself(self, rng):
        d = 8
        store = self._block(d, rng)
        x = rng.normal(size=(1, d))
        out = self_attention_block(store, "blk", Tensor(x), 2)
        # with one token the attention mix is the value row itself
        h = layer_norm(Tensor(x), store["blk.ln1.g"], store["blk.ln1.b"]).data
        v = h @ store["blk.attn.wv"].data + store["blk.attn.bv"].data
        after_attn = x + (v @ store["blk.attn.wo"].data + store["blk.attn.bo"].data)
        h2 = layer_norm(Tensor(after_attn), store["blk.ln2.g"], store["blk.ln2.b"]).data
        expected = after_attn + mlp_oracle(h2, *(store[f"blk.ffn.{n}"].data
                                                 for n in ("w1", "b1", "w2", "b2")))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_output_projections_make_identity(self, rng):
        d = 8
        store = self._block(d, rng)
        store["blk.attn.wo"].data[:] = 0.0
        store["blk.attn.bo"].data[:] = 0.0
        store["blk.ffn.w2"].data[:] = 0.0
        store["blk.ffn.b2"].data[:] = 0.0
        x = rng.normal(size=(5, d))
        out = self_attention_block(store, "blk", Tensor(x), 4)
        np.testing.assert_array_equal(out.data, x)

    def test_single_head_matches_slow_loop_oracle(self, rng):
        d = 6
        store = init_params(attention_shapes("attn", d), rng)
        x = rng.normal(size=(3, d))
        out = multi_head_attention(store, "attn", Tensor(x), Tensor(x), Tensor(x),
                                   heads=1)
        expected = slow_attention_oracle(
            x, store["attn.wq"].data, store["attn.bq"].data,
            store["attn.wk"].data, np.zeros(d),
            store["attn.wv"].data, store["attn.bv"].data,
            store["attn.wo"].data, store["attn.bo"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_block_is_deterministic(self, rng):
        d = 8
        store = self._block(d, rng)
        x = rng.normal(size=(4, d))
        a = self_attention_block(store, "blk", Tensor(x), 2).data
        b = self_attention_block(store, "blk", Tensor(x), 2).data
        np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        store = ParamStore()
        p = store.add("p", np.array([1.0, -2.0]))
        Adam(lr=0.1).step(store, [np.zeros(2)])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_is_minus_lr(self):
        store = ParamStore()
        p = store.add("p", np.array([0.0]))
        Adam(lr=0.01).step(store, [np.array([1.0])])
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-9)

    def test_missing_grad_is_usage_error(self):
        store = ParamStore()
        store.add("p", np.zeros(1))
        with pytest.raises(UsageError, match="0 gradients for 1 trainable"):
            Adam(lr=0.1).step(store, [])

    def test_ten_steps_on_quadratic_match_scalar_oracle(self):
        # minimize (theta - 3)^2 / 2, gradient = theta - 3
        store = ParamStore()
        p = store.add("p", np.array([10.0]))
        opt = Adam(lr=0.05)
        grads = []
        for _ in range(10):
            g = float(p.data[0]) - 3.0
            grads.append(g)
            opt.step(store, [np.array([g])])
        expected = adam_scalar_oracle(10.0, grads, lr=0.05)
        np.testing.assert_allclose(p.data[0], expected[-1], atol=1e-12)

    def test_steps_are_bitwise_equal_to_the_array_formula(self, rng):
        """Several steps on two parameters that share one gradient array, as
        backward can hand out, against the out-of-place Adam expressions."""
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        store = ParamStore()
        a = store.add("a", rng.normal(size=(4, 3)))
        b = store.add("b", rng.normal(size=(4, 3)))
        want = {"a": a.data.copy(), "b": b.data.copy()}
        m = {k: np.zeros((4, 3)) for k in want}
        v = {k: np.zeros((4, 3)) for k in want}
        opt = Adam(lr=lr, betas=(b1, b2), eps=eps)
        for t in range(1, 6):
            shared = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-4, 3)
            before = shared.copy()
            opt.step(store, [shared, shared])
            np.testing.assert_array_equal(shared, before)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k in want:
                m[k] = b1 * m[k] + (1.0 - b1) * shared
                v[k] = b2 * v[k] + (1.0 - b2) * (shared * shared)
                want[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
        assert a.data.tobytes() == want["a"].tobytes()
        assert b.data.tobytes() == want["b"].tobytes()

    def test_clip_grad_norm(self):
        store = ParamStore()
        grad = np.array([3.0, 4.0])
        norm, (clipped,) = clip_grad_norm([grad], 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(clipped), 1.0)
        np.testing.assert_array_equal(grad, [3.0, 4.0])

    def test_shared_gradient_array_is_never_written(self):
        """backward may hand one array to two parameters (here through the
        add); clipping and the Adam step must leave that array as it was."""
        store = ParamStore()
        a = store.add("a", np.array([1.0, -2.0]))
        b = store.add("b", np.array([0.5, 3.0]))
        ga, gb = backward(ad.tsum(a + b), store.trainable_tensors())
        assert ga is gb
        before = ga.copy()
        _, clipped = clip_grad_norm([ga, gb], 0.1)
        Adam(lr=0.1).step(store, clipped)
        Adam(lr=0.1).step(store, [ga, gb])
        np.testing.assert_array_equal(ga, before)


class TestBackwardThroughBlocks:
    def test_block_gradients_match_finite_differences(self, rng):
        from oracles import finite_difference
        d = 8
        store = init_params(self_attention_block_shapes("blk", d, d), rng)
        x = rng.normal(size=(3, d))

        def loss_value():
            out = self_attention_block(store, "blk", Tensor(x), 2)
            return ad.tsum(ad.square(out))

        loss = loss_value()
        names = [n for n, _ in store.trainable_items()]
        grads = dict(zip(names, backward(loss, store.trainable_tensors())))
        for name in ("blk.attn.wq", "blk.ffn.w1", "blk.ln1.g"):
            p = store[name]
            coords = rng.choice(p.data.size, size=4, replace=False)
            fd = finite_difference(lambda: loss_value().item(), p.data, coords)
            for k, g_fd in fd.items():
                g = grads[name].reshape(-1)[k]
                assert abs(g - g_fd) <= 1e-4 * max(1.0, abs(g), abs(g_fd))
