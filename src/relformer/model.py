"""Tracklet transformer: encoder over pooled tracklet features plus a
temporal-aware decoder.

Each predicate query owns a fixed temporal anchor. Per decoder layer the
queries self-attend (with anchor positional terms on queries/keys), then
cross-attend to the tracklets through a per-query value matrix built by
temporal RoI pooling against the query's fixed anchor, with separate
subject/object attention maps normalized by a double softmax (over tracklets
and over roles).

Every decoder layer pools against the same anchors, so the pooling weights
are per-video constants: they are computed on a video's first forward pass,
for all its tracklets in one pass (``video_pool_rows``), and kept on its
VideoContext. Likewise the decoder's start (the anchors' positional terms and
layer 0's self-attention over the query embeddings) is a per-model constant:
a frozen model computes it once, when it is built (``RelationModel``). The
time slots are not refined per layer, and
supervising slot boundaries (e.g. an L1 or temporal-IoU loss against the
matched GT relation's slot) is out of scope; a slot regression fed only by
the piecewise-constant RoI frame coverage would never get a gradient.

The value matrix is the decoder's hot path. A (query, tracklet) pair's
pooling weights depend only on the frames its slot intersection covers, and
many anchors cover the same frames of a tracklet (all of it, the same
clamped range, or none). So each tracklet keeps only its u_i distinct
pooling rows, found by that integer frame range (``video_pool_rows``); the
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
from .data import FRAME_GUARD, VideoSample, Vocab
from .errors import DataError
from .features import init_tracklet_feature, pool_to_encoder_input, spatial_feature
from .head import binarize_links, classeme, classify_predicates
from .nn import (ParamStore, attention_shapes, init_params, layer_norm, layer_norm_shapes,
                 mlp_forward, mlp_shapes, multi_head_attention, pooled_mlp_forward,
                 self_attention_block, self_attention_block_shapes)


# ---------------------------------------------------------------------------
# temporal anchors
# ---------------------------------------------------------------------------


def build_anchors(m_c: int, m_d: int) -> np.ndarray:
    """(m_c * m_d, 2) float64 anchor slots: every (center, duration)
    combination, clamped to [0, 1]. ``ModelConfig`` keeps m_c, m_d >= 1."""
    centers = (np.arange(m_c) + 1) / m_c
    durations = (np.arange(m_d) + 1) / m_d
    slots = np.empty((m_c * m_d, 2))
    k = 0
    for c in centers:
        for w in durations:
            slots[k, 0] = max(c - w / 2.0, 0.0)
            slots[k, 1] = min(c + w / 2.0, 1.0)
            k += 1
    return slots


# ---------------------------------------------------------------------------
# temporal RoI pooling
# ---------------------------------------------------------------------------


def _roi_frame_ranges(track_slots: np.ndarray, track_ends: np.ndarray,
                     query_slots: np.ndarray, frame_count: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(valid, f0, f1), each (m, n): whether query slot q intersects tracklet
    i's slot, and the global frames [f0, f1) the intersection covers by the
    ``data`` module's frame rule, with f0 clamped to the tracklet's last frame
    (``track_ends`` are the tracklets' exclusive end frames). Meaningful only
    where valid. A pair's pooling weights depend on nothing else."""
    inter_s = np.maximum(query_slots[:, None, 0], track_slots[None, :, 0])
    inter_e = np.minimum(query_slots[:, None, 1], track_slots[None, :, 1])
    f0 = np.minimum(np.floor(inter_s * frame_count + FRAME_GUARD).astype(np.int64),
                    track_ends - 1)
    f1 = np.ceil(inter_e * frame_count - FRAME_GUARD).astype(np.int64)
    return inter_s < inter_e, f0, np.maximum(f1, f0 + 1)


def video_pool_rows(track_slots: np.ndarray, spans: np.ndarray, query_slots: np.ndarray,
                    frame_count: int, l_roi: int, dtype
                    ) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct pooling rows of n tracklets against m query slots, built
    in one pass: n blocks of (u_i, l_roi, l_i) weights in ``dtype``, and the
    (m, n) index of each (query, tracklet) pair's row in their concatenation.
    ``track_slots`` is (n, 2) and ``spans`` the (n, 2) global frame spans.

    The slot intersection is mapped to the tracklet's continuous frame
    coordinates [a, b) and cut into l_roi equal bins; a bin averages the
    frames whose centers it covers, with weight 1/count computed in float64,
    and falls back to the nearest covered frame when it covers none.
    Disjoint pairs get an all-zero row.

    Two pairs of one tracklet whose intersections cover the same frames, or
    that both miss it, pool with the same weights. So the integer key
    (f0, f1), or 0 for no intersection, offset by the tracklet's column,
    finds every distinct row of the video in one ``np.unique`` without
    comparing weights. A tracklet's rows come in ascending key order, a
    disjoint pair's first.

    The bin edges are the float64 a + (b - a) * j / l_roi. A frame center
    k + 0.5 lies at or above an edge e exactly when k >= ceil(e - 0.5), so
    each bin's frames are the integer range between the rounded-up bounds
    of its two edges, and the bins tile [a, b).
    """
    spans = np.asarray(spans, dtype=np.int64)
    t0, lengths = spans[:, 0], spans[:, 1] - spans[:, 0]
    m, n = len(query_slots), len(spans)
    valid, f0, f1 = _roi_frame_ranges(track_slots, spans[:, 1], query_slots, frame_count)
    width = frame_count + 2
    keys = np.where(valid, 1 + f0 * width + f1, 0) + np.arange(n) * width * width
    unique, inverse = np.unique(keys.ravel(), return_inverse=True)
    track, key = np.divmod(unique, width * width)

    row_size = l_roi * lengths[track]
    row_base = np.cumsum(row_size) - row_size
    flat = np.zeros(int(row_size.sum()), dtype)

    v = np.flatnonzero(key)  # the rows of intersecting pairs; the others stay zero
    tv = track[v]
    a = (key[v] - 1) // width - t0[tv]
    b = (key[v] - 1) % width - t0[tv]
    af, bf = a.astype(np.float64), b.astype(np.float64)
    edges = af[:, None] + (bf - af)[:, None] * (np.arange(l_roi + 1) / l_roi)[None, :]
    counts = np.diff(np.ceil(edges - 0.5).astype(np.int64), axis=1)  # (V, l_roi)
    base, length = row_base[v], lengths[tv]

    # Member t of the covered frames of all rows, in row, bin, frame order,
    # is frame a + t - first of its row, so its flat position is t plus an
    # offset per (row, bin).
    first = np.cumsum(b - a) - (b - a)
    offsets = (base + a - first)[:, None] + np.arange(l_roi)[None, :] * length[:, None]
    members = counts.ravel()
    flat[np.repeat(offsets.ravel(), members) + np.arange(members.sum())] = np.repeat(
        (1.0 / np.maximum(members, 1)).astype(dtype), members)

    rows, bins = np.nonzero(counts == 0)
    mid = (edges[rows, bins] + edges[rows, bins + 1]) * 0.5
    kf = np.floor(mid - 0.5)
    nearest = np.where(np.abs(kf + 0.5 - mid) <= np.abs(kf + 1.5 - mid), kf, kf + 1.0)
    nearest = np.clip(nearest, af[rows], bf[rows] - 1.0).astype(np.int64)
    flat[base[rows] + bins * length[rows] + nearest] = 1.0

    per_track = np.bincount(track, minlength=n)
    blocks = np.split(flat, np.cumsum(per_track * l_roi * lengths)[:-1])
    return ([block.reshape(u, l_roi, l) for block, u, l in zip(blocks, per_track, lengths)],
            inverse.reshape(m, n).astype(np.int64, copy=False))


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

    Each softmax shifts by its own maximum. One shift shared by both roles
    would underflow a role whose scores all sit far below the other's (about
    87 apart in float32), and its tracklet sum would be 0 / 0.
    """
    return ad.mul(ad.softmax(attn, axis=2), ad.softmax(attn, axis=0))


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

    Its arrays are in the model's dtype, except the integer indices and the
    float64 tracklet ``slots``, which feed only the pooling geometry. It
    holds no copy of the appearance features: they stay in the sample's
    tracklets, as float32 rows, and each forward pass stacks its video's
    rows as its input (``RelationModel._per_frame_features``). So only the
    video being run has a stacked copy, and its graph keeps it until that
    video's backward.

    A context belongs to the model that built it: ``pool_rows[i]`` holds
    tracklet i's u_i distinct (l_roi, l_i) pooling weights against that
    model's anchors, and ``pool_index[q, i]`` is the row of query q's weights
    in their concatenation, which is also the row of its value among a
    layer's value rows. ``video_pool_rows`` builds both for all tracklets in
    one pass, and the blocks are views of one array. Both are filled on the
    first forward pass rather than in ``build_context``, so building
    contexts for a run that never runs a forward pass (``train --epochs 0``)
    stays cheap.
    """

    sample: VideoSample
    spatial: np.ndarray              # (S, 8), tracklets stacked in order
    spans: list[tuple[int, int]]     # global (first, last_exclusive) frames; l_i = last - first
    slots: np.ndarray                # (n, 2) float64 tracklet slots
    categories: np.ndarray           # (n,) int
    classemes: np.ndarray            # (n, d_w)
    pool_rows: list[np.ndarray] | None = None   # n blocks of (u_i, l_roi, l_i)
    pool_index: np.ndarray | None = None        # (m, n) int, into the sum of u_i rows


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
    """A freshly initialised float32 store for ``param_shapes(cfg, vocab)``.

    ``nn.init_params`` draws every tensor in float64 and rounds it to
    float32 once, so a seed names the same draws as under float64 compute.
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
    Both give float32 tensors. The forward pass computes in the store's
    dtype, and builds its constants (spatial features, classemes, pooling
    weights, anchor positions) in it; the bin geometry of the pooling
    weights stays float64.

    The decoder's start does not depend on the video: the anchors' positional
    terms, and layer 0's self-attention over the query embeddings with its
    residual and the ``ln2`` that follows (``_decoder_prefix``). When no
    entry of the store requires a gradient (a loaded checkpoint), the store
    is frozen, so the constructor computes that prefix once and every
    forward reuses it; building it eagerly means ``eval --threads N`` workers
    only read it. A trainable store runs the same code in each forward, so
    its graph and gradients are those of an uncached decoder.
    """

    def __init__(self, cfg, vocab: Vocab, store: ParamStore):
        self.cfg = cfg
        self.vocab = vocab
        self.anchors = build_anchors(cfg.m_c, cfg.m_d)
        self.store = store
        self._prefix = None if store.trainable_items() else self._decoder_prefix()

    # -- construction helpers ------------------------------------------------

    def build_context(self, sample: VideoSample) -> VideoContext:
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
            spatial=np.concatenate([spatial_feature(t.boxes) for t in tracks],
                                   dtype=self.store.dtype),
            spans=[t.slot.frame_span(sample.frame_count) for t in tracks],
            slots=np.array([[t.slot.start, t.slot.end] for t in tracks]),
            categories=np.array([t.category for t in tracks], dtype=np.int64),
            classemes=np.stack([classeme(t.probs, table) for t in tracks]))

    # -- forward pieces -------------------------------------------------------

    def _per_frame_features(self, ctx: VideoContext) -> Tensor:
        """(S, d) per-frame features of all tracklets, stacked in tracklet order.

        The (S, d_a) appearance input stacks the tracklets' float32 rows as
        they are. A float64 store widens them inside its first matmul, which
        is exact, so its output bits are those of a float64 copy made
        beforehand.
        """
        appearance = np.concatenate([t.appearance for t in ctx.sample.tracklets])
        return init_tracklet_feature(self.store, ad.constant(appearance),
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
        computed on the first call for a context, for all its tracklets in
        one ``video_pool_rows`` pass, and kept on it as ``ctx.pool_rows``
        and ``ctx.pool_index``.
        """
        if ctx.pool_rows is None:
            rows, index = video_pool_rows(ctx.slots, ctx.spans, self.anchors,
                                          ctx.sample.frame_count, self.cfg.l_roi,
                                          self.store.dtype)
            ctx.pool_index = index
            ctx.pool_rows = rows
        return pooled_mlp_forward(self.store, f"{prefix}.value_mlp", frames, ctx.pool_rows)

    def _self_attend(self, x: Tensor, pos: Tensor, p: str) -> tuple[Tensor, Tensor]:
        """Decoder layer ``p``'s self-attention with its residual, and the
        ``ln2`` output that feeds its cross-attention."""
        store = self.store
        h = layer_norm(x, store[f"{p}.ln1.g"], store[f"{p}.ln1.b"])
        qk = h + pos
        x = x + multi_head_attention(store, f"{p}.self_attn", qk, qk, h, self.cfg.heads)
        return x, layer_norm(x, store[f"{p}.ln2.g"], store[f"{p}.ln2.b"])

    def _decoder_prefix(self) -> tuple[Tensor, Tensor, Tensor]:
        """(pos, x, h): the anchors' positional terms, and layer 0's
        ``_self_attend`` over the query embeddings. None of them depends on
        the video."""
        store = self.store
        pos = ad.matmul(ad.constant(self.anchors.astype(store.dtype)),
                        store["decoder.pos_proj"])
        return (pos, *self._self_attend(store["decoder.query_embed"], pos, "decoder.layer0"))

    def decode(self, ctx: VideoContext, frames: Tensor, h_enc: Tensor,
               ) -> tuple[Tensor, Tensor]:
        """Run the decoder stack; returns (queries, normalized attention).
        Layer 0 starts from the frozen model's prefix, or from one computed
        for this forward when the store trains."""
        cfg, store = self.cfg, self.store
        pos, x, h = self._prefix or self._decoder_prefix()
        attn_norm = None
        for k in range(cfg.L_d):
            p = f"decoder.layer{k}"
            if k:
                x, h = self._self_attend(x, pos, p)
            values = self.build_value_matrix(ctx, frames, p)
            raw = role_attention(h, h_enc, store, p)
            attn_norm = normalize_attention(raw)
            x = x + cross_attend(attn_norm, values, ctx.pool_index, store, p)

            h = layer_norm(x, store[f"{p}.ln3.g"], store[f"{p}.ln3.b"])
            x = x + mlp_forward(store, f"{p}.ffn", h)
        return x, attn_norm

    def forward(self, ctx: VideoContext) -> ModelOutput:
        frames = self._per_frame_features(ctx)
        pooled = pool_to_encoder_input(self.store, frames,
                                       [t1 - t0 for t0, t1 in ctx.spans], self.cfg.l)
        h_enc = self.encode_tracklets(pooled)
        queries, attn = self.decode(ctx, frames, h_enc)
        links = binarize_links(attn.data)
        probs = classify_predicates(self.store, queries, links, ctx.classemes,
                                    ctx.categories)
        return ModelOutput(attention=attn, links=links, probs=probs)
