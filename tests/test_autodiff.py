import numpy as np
import pytest

from relformer import autodiff as ad
from relformer.autodiff import Tensor, backward
from relformer.errors import ShapeError, UsageError
from relformer.nn import ParamStore

from oracles import attend_rows_oracle, finite_difference


class TestBasics:
    def test_tensor_wraps_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert not hasattr(t, "grad")  # gradients are return values of backward

    def test_matmul_shape_error_names_operands(self):
        with pytest.raises(ShapeError, match="inner dims"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError, match="scalar"):
            backward(x + 1.0, [x])

    def test_backward_twice_is_an_error(self):
        x = Tensor(2.0, requires_grad=True)
        loss = ad.tsum(ad.square(x))
        backward(loss, [x])
        with pytest.raises(UsageError, match="already called"):
            backward(loss, [x])


class TestGradients:
    def test_sum_of_params_gives_unit_grads(self):
        store = ParamStore()
        a = store.add("a", np.ones((2, 3)))
        b = store.add("b", np.ones(4))
        loss = ad.tsum(a) + ad.tsum(b)
        ga, gb = backward(loss, store.trainable_tensors())
        np.testing.assert_array_equal(ga, np.ones((2, 3)))
        np.testing.assert_array_equal(gb, np.ones(4))

    def test_zero_times_params_gives_zero_grads(self):
        store = ParamStore()
        a = store.add("a", np.full((3, 2), 7.0))
        loss = ad.tsum(ad.mul(a, 0.0))
        [ga] = backward(loss, store.trainable_tensors())
        np.testing.assert_array_equal(ga, np.zeros((3, 2)))

    def test_unreachable_params_get_zero_grads(self):
        store = ParamStore()
        a = store.add("a", np.ones(2))
        store.add("b", np.ones(2))
        _, gb = backward(ad.tsum(ad.square(a)), store.trainable_tensors())
        np.testing.assert_array_equal(gb, np.zeros(2))

    def test_reused_tensor_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        loss = ad.tsum(ad.mul(x, x))  # d/dx x^2 = 2x
        [gx] = backward(loss, [x])
        np.testing.assert_allclose(gx, 6.0)

    def test_gradients_follow_the_order_of_params(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones((2, 2)), requires_grad=True)
        frozen = Tensor(np.ones(4))
        loss = ad.tsum(ad.mul(a, 2.0)) + ad.tsum(ad.mul(b, 3.0)) + ad.tsum(frozen)
        gb, g_unused, g_frozen, ga = backward(loss, [b, unused, frozen, a])
        np.testing.assert_array_equal(ga, np.full(2, 2.0))
        np.testing.assert_array_equal(gb, np.full(3, 3.0))
        np.testing.assert_array_equal(g_unused, np.zeros((2, 2)))
        np.testing.assert_array_equal(g_frozen, np.zeros(4))

    @pytest.mark.parametrize("op_name", [
        "add", "sub", "neg", "mul", "div", "matmul", "relu", "exp", "log", "sqrt",
        "square", "softmax", "clip", "reshape", "transpose", "concat", "stack",
        "getitem", "getitem_repeated", "tsum", "tmean",
    ])
    def test_op_gradients_match_finite_differences(self, op_name, rng):
        a_val = rng.uniform(0.3, 1.7, size=(3, 4))
        b_val = rng.uniform(0.3, 1.7, size=(3, 4))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)

        def build():
            ops = {
                "add": lambda: a + b,
                "sub": lambda: a - b,
                "neg": lambda: -a,
                "mul": lambda: a * b,
                "div": lambda: a / b,
                "matmul": lambda: ad.matmul(a, ad.transpose(b)),
                "relu": lambda: ad.relu(a - 1.0),
                "exp": lambda: ad.exp(a),
                "log": lambda: ad.log(a),
                "sqrt": lambda: ad.sqrt(a),
                "square": lambda: ad.square(a),
                "softmax": lambda: ad.softmax(a * b, axis=1),
                "clip": lambda: ad.clip(a, 0.5, 1.5),
                "reshape": lambda: ad.reshape(a, (2, 6)),
                "transpose": lambda: ad.transpose(a),
                "concat": lambda: ad.concat([a, b], axis=1),
                "stack": lambda: ad.stack([a, b], axis=0),
                "getitem": lambda: a[1:, 2:],
                "getitem_repeated": lambda: a[:, np.array([0, 2, 2])],
                "tsum": lambda: ad.tsum(a, axis=0, keepdims=True),
                "tmean": lambda: ad.tmean(a, axis=1),
            }
            # weighting makes the scalar objective sensitive to every entry
            out = ops[op_name]()
            w = np.arange(1, out.data.size + 1, dtype=np.float64).reshape(out.shape)
            return ad.tsum(ad.mul(out, w))

        loss = build()
        [ga] = backward(loss, [a])
        coords = rng.choice(a_val.size, size=5, replace=False)
        fd = finite_difference(lambda: build().item(), a.data, coords)
        for k, g_fd in fd.items():
            g = ga.reshape(-1)[k]
            assert abs(g - g_fd) <= 1e-6 * max(1.0, abs(g), abs(g_fd)), \
                f"{op_name}: coord {k}: analytic {g} vs fd {g_fd}"

    def test_broadcasting_gradients(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        row = Tensor(rng.normal(size=(1, 4)), requires_grad=True)

        def build():
            return ad.tsum(ad.square(a * row + row))

        [g_row] = backward(build(), [row])
        coords = range(4)
        fd = finite_difference(lambda: build().item(), row.data, coords)
        for k, g_fd in fd.items():
            np.testing.assert_allclose(g_row.reshape(-1)[k], g_fd,
                                       rtol=1e-6, atol=1e-8)

    def test_batched_matmul_gradients(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)

        def build():
            return ad.tsum(ad.square(ad.matmul(a, b)))

        [gb] = backward(build(), [b])
        fd = finite_difference(lambda: build().item(), b.data,
                               rng.choice(b.data.size, size=6, replace=False))
        for k, g_fd in fd.items():
            np.testing.assert_allclose(gb.reshape(-1)[k], g_fd,
                                       rtol=1e-6, atol=1e-8)


class TestGetitem:
    @pytest.mark.parametrize("key", [
        1, (slice(None), 2), (slice(1, None), slice(0, 3, 2)), (Ellipsis, None, 1),
        np.array([0, 2, 0]), (np.array([1, 1, 0]), np.array([3, 0, 3])),
        np.array([True, False, True]),
    ])
    def test_gradients_match_finite_differences(self, rng, key):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            out = a[key]
            w = np.arange(1, out.data.size + 1, dtype=np.float64).reshape(out.shape)
            return ad.tsum(ad.mul(out, w))

        [ga] = backward(build(), [a])
        fd = finite_difference(lambda: build().item(), a.data, range(a.data.size))
        for k, g_fd in fd.items():
            np.testing.assert_allclose(ga.reshape(-1)[k], g_fd, rtol=1e-7, atol=1e-7)

    def test_gather_of_repeated_rows_matches_finite_differences(self, rng):
        """The value matrix's gather: an (m, n) index into U rows that names
        most rows more than once, so the VJP must sum their gradients."""
        rows = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        index = np.array([[0, 2], [1, 2], [0, 4], [0, 3], [1, 2]])
        scale = rng.normal(size=(5, 2, 3))

        def build():
            return ad.tsum(ad.mul(ad.square(rows[index]), scale))

        [g] = backward(build(), [rows])
        fd = finite_difference(lambda: build().item(), rows.data, range(rows.data.size))
        for k, g_fd in fd.items():
            assert abs(g.reshape(-1)[k] - g_fd) <= 1e-8 * max(1.0, abs(g_fd)), k

    def test_repeated_array_index_accumulates(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        [ga] = backward(ad.tsum(a[np.array([2, 2, 0])]), [a])
        np.testing.assert_array_equal(ga, [1.0, 0.0, 2.0])


def attend_rows_case(rng, m, n, d_v, spare=0):
    """(attn (2, m, n), rows (U, d_v), index (m, n)) shaped like the decoder's:
    column i indexes its own block of u_i rows, most named by several
    queries, and the last ``spare`` rows are named by none."""
    blocks, offset = [], 0
    for _ in range(n):
        u = int(rng.integers(1, m + 1))
        blocks.append(offset + rng.permutation(np.arange(m) % u))
        offset += u
    attn = Tensor(rng.uniform(0.01, 0.99, size=(2, m, n)), requires_grad=True)
    rows = Tensor(rng.normal(size=(offset + spare, d_v)), requires_grad=True)
    return attn, rows, np.stack(blocks, axis=1)


def gather_weight_sum(attn, rows, index):
    """The composed ops the fused node replaces: per role, gather an
    (m, n, d_v) matrix, weight it by the attention and sum over n."""
    m, n = index.shape
    return [ad.tsum(ad.mul(ad.reshape(attn[r], (m, n, 1)), rows[index]), axis=1)
            for r in range(attn.shape[0])]


class TestAttendRows:
    @pytest.mark.parametrize("m,n,d_v", [(8, 3, 8), (192, 15, 64)],
                             ids=["tiny_grid", "grid_16x12"])
    def test_forward_bits_equal_gather_weight_sum(self, rng, m, n, d_v):
        attn, rows, index = attend_rows_case(rng, m, n, d_v)
        assert len(rows.data) < m * n  # rows repeat
        got = ad.attend_rows(attn, rows, index).data
        assert got.shape == (2, m, d_v)
        for r, want in enumerate(gather_weight_sum(attn, rows, index)):
            assert np.array_equal(got[r], want.data)

    def test_matches_triple_loop_oracle(self, rng):
        attn, rows, index = attend_rows_case(rng, 6, 4, 5, spare=2)
        want = attend_rows_oracle(attn.data, rows.data, index)
        got = ad.attend_rows(attn, rows, index).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradients_match_finite_differences(self, rng):
        """Repeated rows sum their uses' gradients; a row no query reads
        gets exactly zero."""
        attn, rows, index = attend_rows_case(rng, 6, 4, 5, spare=1)
        index[:, 1] = index[:, 0]  # two tracklets read the same rows too
        scale = rng.normal(size=(2, 6, 5))

        def build():
            return ad.tsum(ad.mul(ad.square(ad.attend_rows(attn, rows, index)), scale))

        g_attn, g_rows = backward(build(), [attn, rows])
        assert np.array_equal(g_rows[-1], np.zeros(5))
        for param, grad in ((attn, g_attn), (rows, g_rows)):
            fd = finite_difference(lambda: build().item(), param.data, range(param.data.size))
            for c, g_fd in fd.items():
                g = grad.reshape(-1)[c]
                assert abs(g - g_fd) <= 1e-8 * max(1.0, abs(g), abs(g_fd)), \
                    f"coord {c}: analytic {g} vs fd {g_fd}"

    def test_gradients_match_the_composed_ops(self, rng):
        attn, rows, index = attend_rows_case(rng, 24, 5, 7, spare=1)
        scale = rng.normal(size=(2, 24, 7))
        fused = backward(ad.tsum(ad.mul(ad.attend_rows(attn, rows, index), scale)),
                         [attn, rows])
        composed = ad.stack(gather_weight_sum(attn, rows, index), axis=0)
        for got, want in zip(fused, backward(ad.tsum(ad.mul(composed, scale)),
                                             [attn, rows])):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_wrong_shapes_rejected(self, rng):
        attn, rows, index = attend_rows_case(rng, 6, 4, 5)
        with pytest.raises(ShapeError, match="index"):
            ad.attend_rows(attn, rows, index[:, :3])
        with pytest.raises(ShapeError, match="index"):
            ad.attend_rows(attn, rows, index.T)
        with pytest.raises(ShapeError, match="outside"):
            ad.attend_rows(attn, rows, index + len(rows.data))


# (counts, lengths, k, d, h): shapes on each side of the contraction-order
# rule, each block pooled into its own number of rows u_i, and the encoder
# input's single pooling per block (u_i = 1).
POOL_FIRST = ((3, 2), (9, 12), 3, 4, 5)
PROJECT_FIRST = ((8, 5, 8), (2, 3, 2), 3, 4, 5)
ENCODER = ((1, 1, 1), (2, 3, 9), 4, 4, 5)


def pool_project_case(rng, shape):
    counts, lengths, k, d, h = shape
    frames = Tensor(rng.normal(size=(sum(lengths), d)), requires_grad=True)
    weights = [rng.uniform(size=(u, k, l)) for u, l in zip(counts, lengths)]
    weights[0][0] = 0.0  # a disjoint (query, block) pair pools to zero
    w = Tensor(rng.normal(size=(k * d, h)), requires_grad=True)
    return frames, weights, w


def rule_args(shape):
    """``project_first``'s arguments for a case: U, the sum of u_i * l_i, k, S, d, h."""
    counts, lengths, k, d, h = shape
    return (sum(counts), sum(u * l for u, l in zip(counts, lengths)), k, sum(lengths),
            d, h)


class TestPoolProject:
    def test_shape_rule_sides(self):
        for shape, want in ((POOL_FIRST, False), (PROJECT_FIRST, True),
                            (ENCODER, False)):
            assert ad.project_first(*rule_args(shape)) == want
        # With d == h the rule compares the frame count S with the row count U.
        # u_i = m = 192 rows for each of 7 tracks of 218 frames in all: project.
        assert ad.project_first(192 * 7, 192 * 218, 7, 218, 512, 512)
        assert not ad.project_first(32 * 12, 32 * 2300, 7, 2300, 128, 128)
        # Fewer distinct rows than frames pool first.
        assert not ad.project_first(200, 200 * 31, 7, 218, 512, 512)

    def test_every_block_at_m_rows_is_the_dense_rule(self, rng):
        """u_i = m for all n blocks is the dense (m, n) case, whose rule was
        k*S*h*(d + m) < m*k*(S*d + n*d*h) multiply-adds."""
        for _ in range(500):
            m, n, k, d, h = rng.integers(1, 40, size=5)
            total = int(rng.integers(2 * n, 60 * n))
            dense = k * total * h * (d + m) < m * k * (total * d + n * d * h)
            assert ad.project_first(m * n, m * total, k, total, d, h) == dense

    @pytest.mark.parametrize("shape", [POOL_FIRST, PROJECT_FIRST, ENCODER],
                             ids=["pool_first", "project_first", "encoder"])
    def test_matches_pool_stack_matmul(self, rng, shape):
        frames, weights, w = pool_project_case(rng, shape)
        counts, lengths, k, d, h = shape
        bounds = np.cumsum((0,) + lengths)
        pooled = np.concatenate([(wt @ frames.data[a:b]).reshape(len(wt), k * d)
                                 for wt, a, b in zip(weights, bounds[:-1], bounds[1:])])
        want = pooled @ w.data
        got = ad.pool_project(frames, weights, w).data
        assert got.shape == (sum(counts), h)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [POOL_FIRST, PROJECT_FIRST, ENCODER],
                             ids=["pool_first", "project_first", "encoder"])
    def test_gradients_match_finite_differences(self, rng, shape):
        frames, weights, w = pool_project_case(rng, shape)
        scale = rng.normal(size=(sum(shape[0]), shape[4]))

        def build():
            return ad.tsum(ad.mul(ad.square(ad.pool_project(frames, weights, w)), scale))

        grads = backward(build(), [frames, w])
        for param, grad in zip((frames, w), grads):
            coords = rng.choice(param.data.size, size=12, replace=False)
            fd = finite_difference(lambda: build().item(), param.data, coords)
            for c, g_fd in fd.items():
                g = grad.reshape(-1)[c]
                assert abs(g - g_fd) <= 1e-8 * max(1.0, abs(g), abs(g_fd)), \
                    f"coord {c}: analytic {g} vs fd {g_fd}"

    def test_mismatched_blocks_rejected(self, rng):
        frames, weights, w = pool_project_case(rng, POOL_FIRST)
        with pytest.raises(ShapeError, match="tile"):
            ad.pool_project(frames, weights[:1], w)
        with pytest.raises(ShapeError, match="tile"):
            ad.pool_project(frames, [weights[0], weights[1][:, :2]], w)
        with pytest.raises(ShapeError, match="rows"):
            ad.pool_project(frames, weights, Tensor(np.ones((5, 5))))


class TestCarriedSums:
    """A backward per loss with carried sums against one backward of the sum."""

    def setup_losses(self, rng):
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        first_only = Tensor(rng.normal(size=3), requires_grad=True)
        frozen = Tensor(rng.normal(size=3))
        xs = [rng.normal(size=(4, 3)) for _ in range(2)]

        def loss(i):
            # w is used twice per loss, first_only by the first loss alone
            h = ad.relu(ad.matmul(xs[i], w))
            out = ad.tsum(ad.square(ad.matmul(h, w)))
            return out + ad.tsum(ad.mul(first_only, frozen)) if i == 0 else out

        return [w, first_only, frozen], loss

    def test_equal_to_one_joint_backward(self, rng):
        params, loss = self.setup_losses(rng)
        joint = backward(ad.mul(loss(0) + loss(1), 0.5), params)

        handed = backward(ad.mul(loss(0), 0.5), params)
        carried = backward(ad.mul(loss(1), 0.5), params, handed)
        assert handed == []
        for want, got in zip(joint, carried):
            assert np.array_equal(want, got)
        np.testing.assert_array_equal(carried[2], np.zeros(3))

        # Adding the per-loss gradients afterwards rounds differently, so the
        # data tells the two orders apart.
        separate = [backward(ad.mul(loss(i), 0.5), params) for i in range(2)]
        assert not np.array_equal(separate[0][0] + separate[1][0], joint[0])

    def test_unreached_tensor_keeps_its_carried_sum(self, rng):
        params, loss = self.setup_losses(rng)
        first = backward(loss(0), params)
        kept = first[1]
        carried = backward(loss(1), params, first)
        assert carried[1] is kept

    def test_carried_sums_must_pair_with_leaf_params(self, rng):
        params, loss = self.setup_losses(rng)
        sums = backward(loss(0), params)
        with pytest.raises(UsageError, match="2 carried sums for 3 tensors"):
            backward(loss(1), params, sums[:2])
        inner = ad.mul(params[0], 2.0)
        with pytest.raises(UsageError, match="leaf"):
            backward(ad.tsum(inner), [inner], [np.zeros((3, 3))])
