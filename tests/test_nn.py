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

from conftest import widened
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

    def test_entries_share_one_dtype(self):
        """The model reads its compute dtype from its store, so a store
        never mixes two."""
        store = ParamStore()
        store.add("a", np.zeros(2, np.float32))
        assert store.dtype == np.float32
        with pytest.raises(UsageError, match="'b' is float64, but the store holds float32"):
            store.add("b", np.zeros(2))
        with pytest.raises(UsageError, match="empty store"):
            ParamStore().dtype


class TestInitParams:
    def test_rule_per_name_and_shape(self, rng):
        shapes = {"a.query_embed": (3, 2), "a.w": (4, 2), "a.g": (2,), "a.b": (2,),
                  "tables.t": (3, 2), "tables.given": (2, 2, 2)}
        given = {"tables.given": np.full((2, 2, 2), 7.0)}
        store = init_params(shapes, np.random.default_rng(4), given)
        draws = np.random.default_rng(4)

        def rounded(x):
            """The float64 draw, rounded to float32 once."""
            return np.asarray(x, dtype=np.float64).astype(np.float32).tobytes()

        assert store.dtype == np.float32
        assert store["a.query_embed"].data.tobytes() == rounded(
            draws.normal(0.0, 0.02, size=(3, 2)))
        assert store["a.w"].data.tobytes() == rounded(draws.uniform(-0.5, 0.5, size=(4, 2)))
        assert store["a.g"].data.tobytes() == rounded(np.ones(2))
        assert store["a.b"].data.tobytes() == rounded(np.zeros(2))
        assert store["tables.t"].data.tobytes() == rounded(draws.normal(0.0, 1.0, size=(3, 2)))
        assert store["tables.given"].data.tobytes() == rounded(given["tables.given"])
        assert [n for n, _ in store.trainable_items()] == ["a.b", "a.g", "a.query_embed",
                                                           "a.w"]


class TestMlp:
    def _make(self, dims, rng, prefix="mlp"):
        return widened(init_params(mlp_shapes(prefix, *dims), rng))

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
        e = Tensor(np.exp(x - x.max(axis=axis, keepdims=True)))
        want = e / ad.tsum(e, axis=axis)
        assert np.array_equal(ad.softmax(Tensor(x), axis=axis).data, want.data)

    @given(st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = ad.softmax(Tensor(np.array([row])), axis=-1)
        assert abs(out.data.sum() - 1.0) <= 1e-9


class TestAttention:
    def _block(self, d, rng, prefix="blk", hidden=None):
        return widened(init_params(self_attention_block_shapes(prefix, d, hidden or d), rng))

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
        store = widened(init_params(attention_shapes("attn", d), rng))
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
        """Several steps against the out-of-place Adam expressions, on two
        parameters that share one gradient array, as backward can hand out,
        and one whose gradient is a non-contiguous view; for float32
        parameters, as a model trains, and float64 ones, whose m and v stay
        float64."""
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        shapes = {"a": (4, 3), "b": (4, 3), "strided": (5, 4)}
        for dtype in (np.float32, np.float64):
            store = ParamStore()
            params = {k: store.add(k, rng.normal(size=shape).astype(dtype))
                      for k, shape in shapes.items()}
            want = {k: p.data.copy() for k, p in params.items()}
            m = {k: np.zeros(shape, dtype) for k, shape in shapes.items()}
            v = {k: np.zeros(shape, dtype) for k, shape in shapes.items()}
            opt = Adam(lr=lr, betas=(b1, b2), eps=eps)
            for t in range(1, 6):
                shared = (rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-4, 3)).astype(dtype)
                grads = {"a": shared, "b": shared,
                         "strided": rng.normal(size=(8, 5)).astype(dtype).T[:, ::2]}
                assert not grads["strided"].flags.c_contiguous
                before = {k: g.copy() for k, g in grads.items()}
                opt.step(store, [grads[k] for k in store.names()])
                c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
                for k, g in grads.items():
                    np.testing.assert_array_equal(g, before[k])
                    m[k] = b1 * m[k] + (1.0 - b1) * g
                    v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                    want[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
            for k, p in params.items():
                assert p.data.dtype == dtype and opt._m[k].dtype == dtype
                assert p.data.tobytes() == want[k].tobytes(), (dtype, k)

    def test_step_takes_over_the_gradient_list(self, rng):
        """Each gradient is released once its parameter is updated, so the
        step's peak stays near the m and v it allocates: the parameters'
        bytes once, not m, v and the gradients all at once."""
        import tracemalloc
        store = ParamStore()
        for i in range(8):
            store.add(f"p{i}", rng.normal(size=(256, 300)))
        nbytes = sum(t.data.nbytes for t in store.trainable_tensors())
        tracemalloc.start()
        try:
            grads = [rng.normal(size=(256, 300)) for _ in range(8)]
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Adam(lr=1e-3).step(store, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads == []
        assert peak - start < 1.5 * nbytes

    def test_clip_grad_norm(self):
        store = ParamStore()
        grad = np.array([3.0, 4.0])
        norm, (clipped,) = clip_grad_norm([grad], 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(clipped), 1.0)
        np.testing.assert_array_equal(grad, [3.0, 4.0])

    def test_clip_grad_norm_replaces_one_gradient_at_a_time(self, rng):
        """Scaling builds no second gradient set: the same list comes back,
        each entry replaced by its scaled copy."""
        import tracemalloc
        tracemalloc.start()
        try:
            grads = [rng.normal(size=(256, 300)) for _ in range(8)]
            nbytes = sum(g.nbytes for g in grads)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            norm, clipped = clip_grad_norm(grads, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm > 1.0 and clipped is grads
        assert peak - start < 0.5 * nbytes

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
        store = widened(init_params(self_attention_block_shapes("blk", d, d), rng))
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
