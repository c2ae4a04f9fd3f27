"""Tracklet transformer: encoder over pooled tracklet features plus a
temporal-aware decoder.

Each predicate query owns a fixed temporal anchor. Per decoder layer the
queries self-attend (with anchor positional terms on queries/keys), then
cross-attend to the tracklets through a per-query value matrix built by
temporal RoI pooling against the query's fixed anchor, with separate
subject/object attention maps normalized by a double softmax (over tracklets
and over roles).

Every decoder layer pools against the same anchors, so the pooling weights
are per-video constants: they are computed on a video's first forward pass
and kept on its VideoContext. The time slots are not refined per layer, and
supervising slot boundaries (e.g. an L1 or temporal-IoU loss against the
matched GT relation's slot) is out of scope; a slot regression fed only by
the piecewise-constant RoI frame coverage would never get a gradient.

The value matrix is the decoder's hot path. A (query, tracklet) pair's
pooling weights depend only on the frames its slot intersection covers, and
many anchors cover the same frames of a tracklet (all of it, the same
clamped range, or none). So each tracklet keeps only its u_i distinct
pooling rows, found by that integer frame range (``roi_pool_rows``); the
value MLP runs on the U = sum of u_i rows, and an (m, n) index names each
(query, tracklet) pair's row. Cross-attention reads the rows through that
index in one fused node (``autodiff.attend_rows``), so no (m, n, d_v) value
matrix exists in the forward pass or in the graph; its gradient sums the
gradients of a row's uses.

RoI pooling and the first layer of the value MLP are both linear, so they
run as one fused autodiff node (``autodiff.pool_project``) over the stacked
per-frame features of all n tracklets (S = sum of l_i frames). That node
contracts in one of two orders, chosen from the operand shapes by comparing
flop counts:

- pool-then-project pools each of the U rows into l_roi bins, then
  multiplies the U flattened rows by W1 (about U*l_roi*d*h);
- project-then-pool multiplies each frame once by W1 viewed as
  (d, l_roi*h), then contracts each tracklet's block with its pooling
  weights (about S*l_roi*d*h).

With d == h the rule is S < U: short tracklets under many distinct windows
project first, long tracks under few windows pool first. Both orders
compute the same sum; they differ only in float rounding.

The encoder input is the same pooled MLP (``nn.pooled_mlp_forward``) with
one fixed-length pooling per tracklet, i.e. u_i = 1, which always pools
first.

``param_shapes`` is the one list of the model's tensors, name -> shape,
and the model config plus the vocab determine it. ``init_store`` fills it
with random values for training; a checkpoint stores the config and vocab
instead of a tensor table, and loading slices its blob by this list without
drawing any random values. ``RelationModel`` only runs the forward pass over
the store it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import VideoSample, Vocab
from .errors import ConfigError, DataError
from .features import init_tracklet_feature, pool_to_encoder_input, spatial_feature
from .nn import (ParamStore, attention_shapes, init_params, layer_norm, layer_norm_shapes,
                 mlp_forward, mlp_shapes, multi_head_attention, pooled_mlp_forward,
                 self_attention_block, self_attention_block_shapes)


# ---------------------------------------------------------------------------
# temporal anchors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnchorSet:
    """m = m_c * m_d anchors: every (center, duration) combination, clamped."""

    m_c: int
    m_d: int
    slots: np.ndarray  # (m, 2)

    @property
    def count(self) -> int:
        return len(self.slots)


def build_anchors(m_c: int, m_d: int) -> AnchorSet:
    if m_c < 1 or m_d < 1:
        raise ConfigError(f"anchor grid needs m_c, m_d >= 1, got {m_c}, {m_d}")
    centers = (np.arange(m_c) + 1) / m_c
    durations = (np.arange(m_d) + 1) / m_d
    slots = np.empty((m_c * m_d, 2))
    k = 0
    for c in centers:
        for w in durations:
            slots[k, 0] = max(c - w / 2.0, 0.0)
            slots[k, 1] = min(c + w / 2.0, 1.0)
            k += 1
    return AnchorSet(m_c=m_c, m_d=m_d, slots=slots)


# ---------------------------------------------------------------------------
# temporal RoI pooling
# ---------------------------------------------------------------------------


def _roi_frame_ranges(track_slot: tuple[float, float], query_slots: np.ndarray,
                     frame_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(valid, f0, f1) per query slot: whether it intersects the tracklet slot,
    and the global frames [f0, f1) the intersection covers (meaningful only
    where valid). A pair's pooling weights depend on nothing else."""
    s_i, e_i = track_slot
    inter_s = np.maximum(query_slots[:, 0], s_i)
    inter_e = np.minimum(query_slots[:, 1], e_i)
    f0 = np.floor(inter_s * frame_count + 1e-9).astype(np.int64)
    f1 = np.ceil(inter_e * frame_count - 1e-9).astype(np.int64)
    return inter_s < inter_e, f0, np.maximum(f1, f0 + 1)


def _range_pool_weights(valid: np.ndarray, f0: np.ndarray, f1: np.ndarray, t0: int,
                        l_i: int, l_roi: int) -> np.ndarray:
    """(u, l_roi, l_i) pooling weights of u frame ranges from ``_roi_frame_ranges``."""
    weights = np.zeros((len(valid), l_roi, l_i))
    if not np.any(valid):
        return weights
    a = (f0 - t0).astype(np.float64)
    b = (f1 - t0).astype(np.float64)

    edges = a[:, None] + (b - a)[:, None] * (np.arange(l_roi + 1) / l_roi)[None, :]
    centers = np.arange(l_i) + 0.5
    member = ((centers[None, None, :] >= edges[:, :-1, None])
              & (centers[None, None, :] < edges[:, 1:, None]))
    counts = member.sum(axis=2)

    with np.errstate(invalid="ignore"):
        weights[:] = member / np.maximum(counts, 1)[:, :, None]

    empty = (counts == 0) & valid[:, None]
    if np.any(empty):
        mid = (edges[:, :-1] + edges[:, 1:]) * 0.5
        kf = np.floor(mid - 0.5)
        d_lo = np.abs(kf + 0.5 - mid)
        d_hi = np.abs(kf + 1.5 - mid)
        nearest = np.where(d_lo <= d_hi, kf, kf + 1.0)
        nearest = np.clip(nearest, a[:, None], b[:, None] - 1.0).astype(np.int64)
        qs, bins = np.nonzero(empty)
        weights[qs, bins, nearest[qs, bins]] = 1.0

    weights[~valid] = 0.0
    return weights


def roi_pool_weights(track_slot: tuple[float, float], t0: int, l_i: int,
                     query_slots: np.ndarray, frame_count: int,
                     l_roi: int) -> np.ndarray:
    """(m, l_roi, l_i) pooling weights for one tracklet against m query slots.

    The slot intersection is mapped to the tracklet's continuous frame
    coordinates and cut into l_roi equal bins; a bin averages the frames
    whose centers it covers and falls back to the nearest covered frame when
    it covers none. Disjoint pairs get all-zero rows.
    """
    return _range_pool_weights(*_roi_frame_ranges(track_slot, query_slots, frame_count),
                               t0, l_i, l_roi)


def roi_pool_rows(track_slot: tuple[float, float], t0: int, l_i: int,
                  query_slots: np.ndarray, frame_count: int,
                  l_roi: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``roi_pool_weights``: (u, l_roi, l_i) weights and
    the (m,) index of each query slot's row among them.

    Two slots whose intersections with the tracklet cover the same frames,
    or that both miss it, pool with the same weights, so the integer key
    (f0, f1), or -1 for no intersection, finds them without comparing
    weights. Only one slot per key has its weights built.
    """
    valid, f0, f1 = _roi_frame_ranges(track_slot, query_slots, frame_count)
    keys = np.where(valid, f0 * (frame_count + 2) + f1, -1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return _range_pool_weights(valid[first], f0[first], f1[first], t0, l_i, l_roi), inverse


# ---------------------------------------------------------------------------
# decoder pieces
# ---------------------------------------------------------------------------


def role_attention(q_tilde: Tensor, h_tilde: Tensor, store: ParamStore,
                   prefix: str) -> Tensor:
    """(2, m, n) raw subject/object attention: (Q W^Q_r)(H W^K_r)^T / sqrt(d)."""
    d = h_tilde.shape[-1]
    scale = 1.0 / np.sqrt(d)
    rows = []
    for role in ("subject", "object"):
        q = ad.matmul(q_tilde, store[f"{prefix}.{role}.query_proj"])
        k = ad.matmul(h_tilde, store[f"{prefix}.{role}.key_proj"])
        rows.append(ad.mul(ad.matmul(q, ad.transpose(k)), scale))
    return ad.stack(rows, axis=0)


def normalize_attention(attn: Tensor) -> Tensor:
    """Double softmax: tracklet-axis softmax times role-axis softmax.

    A shared per-query max shift keeps the exponentials stable; it cancels in
    both normalizations, so the result is exact.
    """
    shift = attn.data.max(axis=(0, 2), keepdims=True)
    e = ad.exp(attn - shift)
    over_tracklets = e / ad.tsum(e, axis=2, keepdims=True)
    over_roles = e / ad.tsum(e, axis=0, keepdims=True)
    return ad.mul(over_tracklets, over_roles)


def cross_attend(attn_norm: Tensor, rows: Tensor, index: np.ndarray, store: ParamStore,
                 prefix: str) -> Tensor:
    """(m, d_q): sum over roles of F_r(attention-weighted value rows).

    ``rows`` holds the (U, d_v) distinct value rows and ``index`` the (m, n)
    row of each (query, tracklet) pair; one ``ad.attend_rows`` node weights
    and sums them for both roles, without an (m, n, d_v) matrix.
    """
    mixed = ad.attend_rows(attn_norm, rows, index)  # (2, m, d_v)
    out = None
    for r, role in enumerate(("subject", "object")):
        term = mlp_forward(store, f"{prefix}.{role}.out", mixed[r])
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# the full model
# ---------------------------------------------------------------------------


@dataclass
class VideoContext:
    """Per-video constants, built once by ``RelationModel.build_context`` and
    reused across layers and epochs.

    A context belongs to the model that built it: ``pool_rows[i]`` holds
    tracklet i's u_i distinct (l_roi, l_i) pooling weights against that
    model's anchors (``roi_pool_rows``), and ``pool_index[q, i]`` is the row
    of query q's weights in their concatenation, which is also the row of its
    value among a layer's value rows. Both are filled on the first
    forward pass rather than in ``build_context``, so building contexts for a
    run that never runs a forward pass (``train --epochs 0``) stays cheap.
    """

    sample: VideoSample
    appearance: np.ndarray           # (S, d_a) float64, tracklets stacked in order
    spatial: np.ndarray              # (S, 8), stacked likewise
    spans: list[tuple[int, int]]     # global (first, last_exclusive) frames; l_i = last - first
    slots: np.ndarray                # (n, 2) tracklet slots
    categories: np.ndarray           # (n,) int
    classemes: np.ndarray            # (n, d_w)
    pool_rows: list[np.ndarray] | None = None   # n blocks of (u_i, l_roi, l_i)
    pool_index: np.ndarray | None = None        # (m, n) int, into the sum of u_i rows

    @property
    def n(self) -> int:
        return len(self.sample.tracklets)


@dataclass
class ModelOutput:
    attention: Tensor        # (2, m, n) normalized role attention
    links: np.ndarray        # (m, 2) argmax subject/object tracklet indices
    probs: Tensor            # (m, |C_rel|+1) predicate probabilities (last = no-relation)


def param_shapes(cfg, vocab: Vocab) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor the model reads, in initialisation order.

    This is the one list of the model's tensors: ``init_store`` fills it with
    random values, and ``checkpoint.load_checkpoint`` slices a blob by it.
    """
    h = cfg.mlp_hidden
    n_obj, n_rel = len(vocab.objects), len(vocab.predicates)
    shapes = {**mlp_shapes("feat.appearance_mlp", cfg.d_a, h, cfg.d // 2),
              **mlp_shapes("feat.spatial_mlp", 8, h, cfg.d // 2),
              **mlp_shapes("feat.pool_mlp", cfg.l * cfg.d, h, cfg.d)}
    for k in range(cfg.L_e):
        shapes.update(self_attention_block_shapes(f"encoder.layer{k}", cfg.d, h))
    shapes["decoder.query_embed"] = (cfg.m_c * cfg.m_d, cfg.d_q)
    shapes["decoder.pos_proj"] = (2, cfg.d_q)
    for k in range(cfg.L_d):
        p = f"decoder.layer{k}"
        shapes.update(attention_shapes(f"{p}.self_attn", cfg.d_q))
        for ln in ("ln1", "ln2", "ln3"):
            shapes.update(layer_norm_shapes(f"{p}.{ln}", cfg.d_q))
        shapes.update(mlp_shapes(f"{p}.ffn", cfg.d_q, h, cfg.d_q))
        shapes.update(mlp_shapes(f"{p}.value_mlp", cfg.l_roi * cfg.d, h, cfg.d_v))
        for role in ("subject", "object"):
            shapes[f"{p}.{role}.query_proj"] = (cfg.d_q, cfg.d)
            shapes[f"{p}.{role}.key_proj"] = (cfg.d, cfg.d)
            shapes.update(mlp_shapes(f"{p}.{role}.out", cfg.d_v, h, cfg.d_q))
    shapes.update(mlp_shapes("head.classify", cfg.d_q + 2 * cfg.d_w, h, n_rel + 1))
    shapes["tables.classeme"] = (n_obj, cfg.d_w)
    shapes["tables.freq_bias"] = (n_obj, n_obj, n_rel)
    return shapes


def init_store(cfg, vocab: Vocab, seed: int,
               embeddings: np.ndarray | None = None) -> ParamStore:
    """A freshly initialised store for ``param_shapes(cfg, vocab)``.

    ``embeddings`` replaces the random classeme table; its shape is checked
    where it is read (``head.load_embedding_table``). The frequency bias
    starts uniform, at log 1/|C_rel|.
    """
    shapes = param_shapes(cfg, vocab)
    given = {"tables.freq_bias": np.full(shapes["tables.freq_bias"],
                                         -np.log(len(vocab.predicates)))}
    if embeddings is not None:
        given["tables.classeme"] = embeddings
    return init_params(shapes, np.random.default_rng(seed), given)


class RelationModel:
    """Runs the full per-video forward pass over the store it is given.

    The store holds the tensors of ``param_shapes(cfg, vocab)``: from
    ``init_store`` for training, or from ``checkpoint.load_checkpoint``,
    which accepts only a checkpoint written for the same config and vocab.
    """

    def __init__(self, cfg, vocab: Vocab, store: ParamStore):
        self.cfg = cfg
        self.vocab = vocab
        self.anchors = build_anchors(cfg.m_c, cfg.m_d)
        self.store = store

    # -- construction helpers ------------------------------------------------

    def build_context(self, sample: VideoSample) -> VideoContext:
        from .head import classeme
        tracks = sample.tracklets
        if not tracks:
            raise DataError(f"video {sample.video_id}: no tracklets to build a context for")
        for t in tracks:
            if t.appearance.shape[1] != self.cfg.d_a:
                raise DataError(
                    f"video {sample.video_id}: tracklet {t.id} feature width "
                    f"{t.appearance.shape[1]} != model d_a={self.cfg.d_a}")
        table = self.store["tables.classeme"].data
        return VideoContext(
            sample=sample,
            appearance=np.concatenate([t.appearance for t in tracks], dtype=np.float64),
            spatial=np.concatenate([spatial_feature(t.boxes) for t in tracks]),
            spans=[t.slot.frame_span(sample.frame_count) for t in tracks],
            slots=np.array([[t.slot.start, t.slot.end] for t in tracks]),
            categories=np.array([t.category for t in tracks], dtype=np.int64),
            classemes=np.stack([classeme(t.probs, table) for t in tracks]))

    # -- forward pieces -------------------------------------------------------

    def _per_frame_features(self, ctx: VideoContext) -> Tensor:
        """(S, d) per-frame features of all tracklets, stacked in tracklet order."""
        return init_tracklet_feature(self.store, ad.constant(ctx.appearance),
                                     ad.constant(ctx.spatial))

    def encode_tracklets(self, h: Tensor) -> Tensor:
        for k in range(self.cfg.L_e):
            h = self_attention_block(self.store, f"encoder.layer{k}", h, self.cfg.heads)
        return h

    def build_value_matrix(self, ctx: VideoContext, frames: Tensor, prefix: str) -> Tensor:
        """(U, d_v) value rows: the value MLP over each tracklet's distinct
        RoI-pooled rows, as one pooled-MLP node whose contraction order the
        module docstring gives. Row ``ctx.pool_index[q, i]`` is the value of
        query q for tracklet i; ``cross_attend`` reads the rows through that
        index, so no (m, n, d_v) matrix is built.

        The distinct pooling rows against the anchors and the index are
        computed on the first call for a context and kept on it as
        ``ctx.pool_rows`` and ``ctx.pool_index``.
        """
        if ctx.pool_rows is None:
            rows, index, offset = [], np.empty((self.anchors.count, ctx.n), np.int64), 0
            for i, (slot, (t0, t1)) in enumerate(zip(ctx.slots, ctx.spans)):
                w, inverse = roi_pool_rows(slot, t0, t1 - t0, self.anchors.slots,
                                           ctx.sample.frame_count, self.cfg.l_roi)
                rows.append(w)
                index[:, i] = offset + inverse
                offset += len(w)
            ctx.pool_index = index
            ctx.pool_rows = rows
        return pooled_mlp_forward(self.store, f"{prefix}.value_mlp", frames, ctx.pool_rows)

    def decode(self, ctx: VideoContext, frames: Tensor, h_enc: Tensor,
               ) -> tuple[Tensor, Tensor]:
        """Run the decoder stack; returns (queries, normalized attention)."""
        cfg, store = self.cfg, self.store
        pos = ad.matmul(ad.constant(self.anchors.slots), store["decoder.pos_proj"])
        x = store["decoder.query_embed"]
        attn_norm = None
        for k in range(cfg.L_d):
            p = f"decoder.layer{k}"
            h = layer_norm(x, store[f"{p}.ln1.g"], store[f"{p}.ln1.b"])
            qk = h + pos
            x = x + multi_head_attention(store, f"{p}.self_attn", qk, qk, h, cfg.heads)

            h = layer_norm(x, store[f"{p}.ln2.g"], store[f"{p}.ln2.b"])
            values = self.build_value_matrix(ctx, frames, p)
            raw = role_attention(h, h_enc, store, p)
            attn_norm = normalize_attention(raw)
            x = x + cross_attend(attn_norm, values, ctx.pool_index, store, p)

            h = layer_norm(x, store[f"{p}.ln3.g"], store[f"{p}.ln3.b"])
            x = x + mlp_forward(store, f"{p}.ffn", h)
        return x, attn_norm

    def forward(self, ctx: VideoContext) -> ModelOutput:
        from .head import binarize_links, classify_predicates
        frames = self._per_frame_features(ctx)
        pooled = pool_to_encoder_input(self.store, frames,
                                       [t1 - t0 for t0, t1 in ctx.spans], self.cfg.l)
        h_enc = self.encode_tracklets(pooled)
        queries, attn = self.decode(ctx, frames, h_enc)
        links = binarize_links(attn.data)
        probs = classify_predicates(self.store, queries, links, ctx.classemes,
                                    ctx.categories)
        return ModelOutput(attention=attn, links=links, probs=probs)
