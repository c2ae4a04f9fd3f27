import numpy as np
import pytest

from relformer.autodiff import Tensor
from relformer.config import ModelConfig
from relformer.errors import ConfigError
from relformer.features import (delta_boxes, init_tracklet_feature, pool_matrix,
                                pool_to_encoder_input, spatial_feature)
from relformer.nn import init_params, mlp_shapes

from conftest import widened
from oracles import encoder_pool_oracle, mlp_oracle


class TestDeltaBoxes:
    def test_constant_boxes_give_zero_rows(self):
        boxes = np.tile([0.1, 0.2, 0.3, 0.4], (5, 1))
        np.testing.assert_array_equal(delta_boxes(boxes), np.zeros((5, 4)))

    def test_two_frame_example(self):
        boxes = np.array([[0.1, 0.1, 0.2, 0.2], [0.15, 0.1, 0.25, 0.2]])
        out = delta_boxes(boxes)
        np.testing.assert_allclose(out[0], [0.05, 0.0, 0.05, 0.0])
        np.testing.assert_array_equal(out[1], np.zeros(4))

    def test_random_tracklet_matches_elementwise_oracle(self, rng):
        boxes = rng.uniform(0.0, 1.0, size=(6, 4))
        out = delta_boxes(boxes)
        for j in range(5):
            np.testing.assert_array_equal(out[j], boxes[j + 1] - boxes[j])
        np.testing.assert_array_equal(out[5], np.zeros(4))


class TestSpatialFeature:
    def test_constant_boxes(self):
        boxes = np.tile([0.1, 0.2, 0.3, 0.4], (4, 1))
        out = spatial_feature(boxes)
        assert out.shape == (4, 8)
        np.testing.assert_array_equal(out[:, :4], boxes)
        np.testing.assert_array_equal(out[:, 4:], np.zeros((4, 4)))

    def test_minimum_length_shape(self):
        out = spatial_feature(np.array([[0.1, 0.1, 0.2, 0.2],
                                        [0.2, 0.2, 0.3, 0.3]]))
        assert out.shape == (2, 8)

    def test_random_matches_stack_oracle(self, rng):
        boxes = rng.uniform(0.0, 1.0, size=(7, 4))
        expected = np.concatenate([boxes, delta_boxes(boxes)], axis=1)
        np.testing.assert_array_equal(spatial_feature(boxes), expected)

    def test_first_four_columns_bit_exact(self, rng):
        boxes = rng.uniform(0.0, 1.0, size=(5, 4))
        assert np.array_equal(spatial_feature(boxes)[:, :4], boxes)


class TestInitTrackletFeature:
    def _store(self, d_a, d, hidden, rng):
        return widened(init_params({**mlp_shapes("feat.appearance_mlp", d_a, hidden, d // 2),
                                    **mlp_shapes("feat.spatial_mlp", 8, hidden, d // 2)},
                                   rng))

    def test_zero_weights_give_zero_feature(self, rng):
        store = self._store(6, 8, 8, rng)
        for name in list(store.names()):
            store[name].data[:] = 0.0
        out = init_tracklet_feature(store, Tensor(rng.normal(size=(5, 6))),
                                    Tensor(rng.normal(size=(5, 8))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 8)))

    def test_paper_scale_shape(self, rng):
        store = self._store(16, 512, 32, rng)
        out = init_tracklet_feature(store, Tensor(rng.normal(size=(7, 16))),
                                    Tensor(rng.normal(size=(7, 8))))
        assert out.shape == (7, 512)

    def test_odd_width_is_config_error(self):
        """The tracklet feature splits d into two equal halves; ModelConfig
        is where an odd d is refused."""
        with pytest.raises(ConfigError, match="even"):
            ModelConfig(d=7, heads=1)

    def test_matches_two_mlp_oracle(self, rng):
        d_a, d, hidden = 5, 6, 9
        store = self._store(d_a, d, hidden, rng)
        app = rng.normal(size=(4, d_a))
        spat = rng.normal(size=(4, 8))
        out = init_tracklet_feature(store, Tensor(app), Tensor(spat))
        left = mlp_oracle(app, store["feat.appearance_mlp.w1"].data,
                          store["feat.appearance_mlp.b1"].data,
                          store["feat.appearance_mlp.w2"].data,
                          store["feat.appearance_mlp.b2"].data)
        right = mlp_oracle(spat, store["feat.spatial_mlp.w1"].data,
                           store["feat.spatial_mlp.b1"].data,
                           store["feat.spatial_mlp.w2"].data,
                           store["feat.spatial_mlp.b2"].data)
        np.testing.assert_allclose(out.data, np.concatenate([left, right], axis=1),
                                   atol=1e-12)

    def test_halves_are_independent(self, rng):
        d_a, d, hidden = 5, 6, 9
        store = self._store(d_a, d, hidden, rng)
        app = rng.normal(size=(4, d_a))
        spat = rng.normal(size=(4, 8))
        full = init_tracklet_feature(store, Tensor(app), Tensor(spat)).data
        for name in store.names():
            if name.startswith("feat.spatial_mlp"):
                store[name].data[:] = 0.0
        masked = init_tracklet_feature(store, Tensor(app), Tensor(spat)).data
        np.testing.assert_array_equal(masked[:, :d // 2], full[:, :d // 2])
        np.testing.assert_array_equal(masked[:, d // 2:], np.zeros((4, d // 2)))


class TestEncoderPooling:
    def _store(self, d, hidden, l_pool, rng):
        return widened(init_params(mlp_shapes("feat.pool_mlp", l_pool * d, hidden, d), rng))

    @staticmethod
    def _oracle(store, feature, l_pool):
        """(d,) encoder input of one tracklet from the pooling and MLP oracles."""
        pooled = encoder_pool_oracle(feature, l_pool)
        return mlp_oracle(pooled.reshape(1, -1), store["feat.pool_mlp.w1"].data,
                          store["feat.pool_mlp.b1"].data, store["feat.pool_mlp.w2"].data,
                          store["feat.pool_mlp.b2"].data)[0]

    def test_four_frames_pool_as_identity_bins(self, rng):
        np.testing.assert_array_equal(pool_matrix(4, 4, np.float64), np.eye(4))

    def test_single_frame_broadcasts_to_all_bins(self):
        np.testing.assert_array_equal(pool_matrix(1, 4, np.float64), np.ones((4, 1)))

    def test_ten_frames_match_binning_oracle(self, rng):
        d, hidden, l_pool = 6, 8, 4
        store = self._store(d, hidden, l_pool, rng)
        feature = rng.normal(size=(10, d))
        out = pool_to_encoder_input(store, Tensor(feature), [10], l_pool)
        assert out.shape == (1, d)
        np.testing.assert_allclose(out.data[0], self._oracle(store, feature, l_pool),
                                   atol=1e-12)

    def test_several_tracklets_match_per_tracklet_oracle(self, rng):
        """One fused call over stacked tracklets of different lengths gives,
        row by row, what pooling and projecting each tracklet alone gives."""
        d, hidden, l_pool = 6, 8, 4
        store = self._store(d, hidden, l_pool, rng)
        lengths = [2, 3, 4, 23]
        frames = rng.normal(size=(sum(lengths), d))
        out = pool_to_encoder_input(store, Tensor(frames), lengths, l_pool)
        assert out.shape == (len(lengths), d)
        bounds = np.cumsum([0] + lengths)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            np.testing.assert_allclose(out.data[i],
                                       self._oracle(store, frames[a:b], l_pool),
                                       atol=1e-12)

    @pytest.mark.parametrize("l_i", [1, 2, 3, 4, 5, 7, 10, 23])
    def test_pool_matrix_matches_oracle_rule(self, l_i, rng):
        feature = rng.normal(size=(l_i, 3))
        np.testing.assert_allclose(pool_matrix(l_i, 4, np.float64) @ feature,
                                   encoder_pool_oracle(feature, 4), atol=1e-12)

    def test_pool_rows_are_stochastic(self):
        for l_i in (1, 2, 5, 9):
            w = pool_matrix(l_i, 4, np.float64)
            np.testing.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-12)

    def test_pool_matrix_is_built_in_the_dtype_asked_for(self):
        """Each weight is rounded once: float32 1/3 is the float64 one rounded."""
        w = pool_matrix(3, 1, np.float32)
        assert w.dtype == np.float32
        assert w.tobytes() == pool_matrix(3, 1, np.float64).astype(np.float32).tobytes()

    def test_float32_frames_pool_in_float32(self, rng):
        store = init_params(mlp_shapes("feat.pool_mlp", 4 * 6, 8, 6), rng)
        frames = Tensor(rng.normal(size=(12, 6)).astype(np.float32))
        assert pool_to_encoder_input(store, frames, [5, 7], 4).data.dtype == np.float32

    def test_reversing_frames_changes_output(self, rng):
        d, hidden, l_pool = 6, 8, 4
        store = self._store(d, hidden, l_pool, rng)
        feature = rng.normal(size=(9, d))
        fwd = pool_to_encoder_input(store, Tensor(feature), [9], l_pool).data
        rev = pool_to_encoder_input(store, Tensor(feature[::-1].copy()), [9], l_pool).data
        assert not np.allclose(fwd, rev)
