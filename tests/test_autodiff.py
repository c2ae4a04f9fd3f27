import numpy as np
import pytest

from relformer import autodiff as ad
from relformer.autodiff import Tensor, backward
from relformer.errors import ShapeError, UsageError
from relformer.nn import ParamStore

from oracles import finite_difference


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
        "add", "sub", "mul", "div", "matmul", "relu", "exp", "log", "sqrt",
        "square", "clip", "reshape", "transpose", "concat", "stack", "getitem",
        "take", "tsum", "tmean",
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
                "mul": lambda: a * b,
                "div": lambda: a / b,
                "matmul": lambda: ad.matmul(a, ad.transpose(b)),
                "relu": lambda: ad.relu(a - 1.0),
                "exp": lambda: ad.exp(a),
                "log": lambda: ad.log(a),
                "sqrt": lambda: ad.sqrt(a),
                "square": lambda: ad.square(a),
                "clip": lambda: ad.clip(a, 0.5, 1.5),
                "reshape": lambda: ad.reshape(a, (2, 6)),
                "transpose": lambda: ad.transpose(a),
                "concat": lambda: ad.concat([a, b], axis=1),
                "stack": lambda: ad.stack([a, b], axis=0),
                "getitem": lambda: a[1:, 2:],
                "take": lambda: ad.take(a, np.array([0, 2, 2]), axis=1),
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

    def test_repeated_array_index_accumulates(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        [ga] = backward(ad.tsum(a[np.array([2, 2, 0])]), [a])
        np.testing.assert_array_equal(ga, [1.0, 0.0, 2.0])


# (m, lengths, k, d, h): shapes on each side of the contraction-order rule,
# and the encoder input's single pooling per block (m=1).
POOL_FIRST = (3, (9, 12), 3, 4, 5)
PROJECT_FIRST = (8, (2, 3, 2), 3, 4, 5)
ENCODER = (1, (2, 3, 9), 4, 4, 5)


def pool_project_case(rng, shape):
    m, lengths, k, d, h = shape
    frames = Tensor(rng.normal(size=(sum(lengths), d)), requires_grad=True)
    weights = [rng.uniform(size=(m, k, l)) for l in lengths]
    weights[0][0] = 0.0  # a disjoint (query, block) pair pools to zero
    w = Tensor(rng.normal(size=(k * d, h)), requires_grad=True)
    return frames, weights, w


class TestPoolProject:
    def test_shape_rule_sides(self):
        for shape, want in ((POOL_FIRST, False), (PROJECT_FIRST, True),
                            (ENCODER, False)):
            m, lengths, k, d, h = shape
            assert ad.project_first(m, len(lengths), k, sum(lengths), d, h) == want
        # with d == h the rule compares the frame count with m*n
        assert ad.project_first(192, 7, 7, 218, 512, 512)
        assert not ad.project_first(32, 12, 7, 2300, 128, 128)

    @pytest.mark.parametrize("shape", [POOL_FIRST, PROJECT_FIRST, ENCODER],
                             ids=["pool_first", "project_first", "encoder"])
    def test_matches_pool_stack_matmul(self, rng, shape):
        frames, weights, w = pool_project_case(rng, shape)
        m, lengths, k, d, h = shape
        bounds = np.cumsum((0,) + lengths)
        pooled = np.stack([(wt @ frames.data[a:b]).reshape(m, k * d)
                           for wt, a, b in zip(weights, bounds[:-1], bounds[1:])], axis=1)
        want = pooled.reshape(-1, k * d) @ w.data
        got = ad.pool_project(frames, weights, w).data
        assert got.shape == (m * len(lengths), h)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [POOL_FIRST, PROJECT_FIRST, ENCODER],
                             ids=["pool_first", "project_first", "encoder"])
    def test_gradients_match_finite_differences(self, rng, shape):
        frames, weights, w = pool_project_case(rng, shape)
        scale = rng.normal(size=(shape[0] * len(shape[1]), shape[4]))

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
        with pytest.raises(ShapeError, match="rows"):
            ad.pool_project(frames, weights, Tensor(np.ones((5, 5))))
