"""Tracklet feature initialization and the encoder-input pooling.

Per-frame features are [MLP_v(appearance); MLP_s(spatial)] with each half of
width d/2; the spatial feature stacks the raw boxes with their frame-to-frame
deltas (final delta row zero-padded so the row count stays l_i). The encoder
input pools the per-frame feature to a fixed number of rows, flattens, and
projects back to width d: one ``nn.pooled_mlp_forward`` node over all n
tracklets with one pooled row each (u_i = 1), the fused path of the decoder
value matrix.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import ParamStore, mlp_forward, pooled_mlp_forward


def delta_boxes(boxes: np.ndarray) -> np.ndarray:
    """Row j is boxes[j+1] - boxes[j]; the final row is zero-padded."""
    boxes = np.asarray(boxes, dtype=np.float64)
    out = np.zeros_like(boxes)
    out[:-1] = boxes[1:] - boxes[:-1]
    return out


def spatial_feature(boxes: np.ndarray) -> np.ndarray:
    """(l_i, 8): boxes concatenated with their deltas along the feature axis,
    in float64 like all box code; ``RelationModel.build_context`` rounds it
    to the model's dtype once."""
    boxes = np.asarray(boxes, dtype=np.float64)
    return np.concatenate([boxes, delta_boxes(boxes)], axis=1)


def init_tracklet_feature(store: ParamStore, appearance: Tensor, spatial: Tensor) -> Tensor:
    """Per-frame feature (l_i, d) from appearance (l_i, d_a) and spatial (l_i, 8)."""
    visual = mlp_forward(store, "feat.appearance_mlp", appearance)
    spat = mlp_forward(store, "feat.spatial_mlp", spatial)
    return ad.concat([visual, spat], axis=1)


def pool_matrix(l_i: int, l_pool: int, dtype) -> np.ndarray:
    """(l_pool, l_i) row-stochastic adaptive average-pooling weights in ``dtype``.

    Bin j averages frames [floor(j*l_i/l), floor((j+1)*l_i/l)), widened to at
    least one frame; for l_i < l_pool the bins overlap.
    """
    w = np.zeros((l_pool, l_i), dtype)
    for j in range(l_pool):
        a = min(j * l_i // l_pool, l_i - 1)
        b = min(max((j + 1) * l_i // l_pool, a + 1), l_i)
        w[j, a:b] = 1.0 / (b - a)
    return w


def pool_to_encoder_input(store: ParamStore, frames: Tensor, lengths: list[int],
                          l_pool: int) -> Tensor:
    """(n, d) encoder input: adaptive average-pool each of the n stacked
    tracklets (``lengths`` frames each) to l_pool rows, flatten, project."""
    weights = [pool_matrix(l_i, l_pool, frames.data.dtype)[None] for l_i in lengths]
    return pooled_mlp_forward(store, "feat.pool_mlp", frames, weights)
