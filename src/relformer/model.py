"""Tracklet transformer: encoder over pooled tracklet features plus a
temporal-aware decoder.

Each predicate query owns a fixed temporal anchor. Per decoder layer the
queries self-attend (with anchor positional terms on queries/keys), then
cross-attend to the tracklets through a per-query value matrix built by
temporal RoI pooling against the query's current time slot, with separate
subject/object attention maps normalized by a double softmax (over tracklets
and over roles). New time slots are regressed from the updated queries as
(center, log-width) offsets against the anchors.

Slot regression feeds only the discrete RoI frame coverage, which is
piecewise-constant in the slot values, so slots are computed graph-free and
carry no gradient; everything else is differentiable.

The value matrix is the decoder's hot path. RoI pooling and the first layer
of the value MLP are both linear, so they run as one fused autodiff node
(``autodiff.pool_project``) over the stacked per-frame features of all n
tracklets (S = sum of l_i frames). That node contracts in one of two orders,
chosen from the operand shapes by comparing flop counts:

- pool-then-project pools every (query, tracklet) pair into l_roi rows, then
  multiplies the m*n flattened rows by W1 (about m*n*l_roi*d*h);
- project-then-pool multiplies each frame once by W1 viewed as
  (d, l_roi*h), then contracts each tracklet's block with its pooling
  weights (about S*l_roi*d*h).

With d == h the rule is S < m*n: short tracklets under many queries project
first, long tracks under few queries pool first. Both orders compute the
same sum; they differ only in float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TimeSlot, Tracklet, VideoSample, Vocab
from .errors import ConfigError, DataError
from .features import (feature_specs, init_feature_params, init_tracklet_feature,
                       pool_to_encoder_input, spatial_feature)
from .nn import (MlpSpec, ParamStore, affine_init, init_attention, init_mlp,
                 init_self_attention_block, layer_norm, mlp_forward, mlp_forward_np,
                 multi_head_attention, self_attention_block)

MIN_SLOT_WIDTH = 1e-3


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


def anchor_time_slots(anchors: AnchorSet) -> list[TimeSlot]:
    return [TimeSlot(float(s), float(e)) for s, e in anchors.slots]


# ---------------------------------------------------------------------------
# temporal RoI pooling
# ---------------------------------------------------------------------------


def roi_pool_weights(track_slot: tuple[float, float], t0: int, l_i: int,
                     query_slots: np.ndarray, frame_count: int,
                     l_roi: int) -> np.ndarray:
    """(m, l_roi, l_i) pooling weights for one tracklet against m query slots.

    The slot intersection is mapped to the tracklet's continuous frame
    coordinates and cut into l_roi equal bins; a bin averages the frames
    whose centers it covers and falls back to the nearest covered frame when
    it covers none. Disjoint pairs get all-zero rows.
    """
    m = len(query_slots)
    weights = np.zeros((m, l_roi, l_i))
    s_i, e_i = track_slot
    inter_s = np.maximum(query_slots[:, 0], s_i)
    inter_e = np.minimum(query_slots[:, 1], e_i)
    valid = inter_s < inter_e
    if not np.any(valid):
        return weights

    f0 = np.floor(inter_s * frame_count + 1e-9).astype(np.int64)
    f1 = np.ceil(inter_e * frame_count - 1e-9).astype(np.int64)
    f1 = np.maximum(f1, f0 + 1)
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


def temporal_roi_pool(per_frame: Tensor, track_slot: TimeSlot, query_slot: TimeSlot,
                      frame_count: int, l_roi: int) -> Tensor:
    """(l_roi, d) pooled feature for one tracklet-query pair (zero if disjoint)."""
    t0, t1 = track_slot.frame_span(frame_count)
    w = roi_pool_weights((track_slot.start, track_slot.end), t0, t1 - t0,
                         np.array([[query_slot.start, query_slot.end]]),
                         frame_count, l_roi)[0]
    return ad.matmul(ad.constant(w), per_frame)


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


def cross_attend(attn_norm: Tensor, values: Tensor, store: ParamStore, prefix: str,
                 out_spec: MlpSpec) -> Tensor:
    """(m, d_q): sum over roles of F_r(attention-weighted value rows)."""
    m, n = attn_norm.shape[1], attn_norm.shape[2]
    out = None
    for r, role in enumerate(("subject", "object")):
        w = ad.reshape(attn_norm[r], (m, n, 1))
        mixed = ad.tsum(ad.mul(w, values), axis=1)  # (m, d_v)
        term = mlp_forward(store, f"{prefix}.{role}.out", out_spec, mixed)
        out = term if out is None else out + term
    return out


def apply_slot_offsets(slots: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """New slots from (delta-center, delta-log-width) offsets, clamped valid.

    center' = c + dc*w, width' = w*exp(dw); the result is clipped into [0, 1]
    and widened to MIN_SLOT_WIDTH when degenerate, so 0 <= s < e <= 1 always.
    """
    w = slots[:, 1] - slots[:, 0]
    dc = offsets[:, 0]
    dw = np.clip(offsets[:, 1], -30.0, 30.0)
    shift = dc * w
    grow = w * np.expm1(dw)  # width change; exactly zero for zero offsets
    s = np.clip(slots[:, 0] + shift - grow * 0.5, 0.0, 1.0)
    e = np.clip(slots[:, 1] + shift + grow * 0.5, 0.0, 1.0)
    narrow = (e - s) < MIN_SLOT_WIDTH
    if np.any(narrow):
        mid = np.clip((s + e) * 0.5, MIN_SLOT_WIDTH / 2, 1.0 - MIN_SLOT_WIDTH / 2)
        s = np.where(narrow, mid - MIN_SLOT_WIDTH / 2, s)
        e = np.where(narrow, mid + MIN_SLOT_WIDTH / 2, e)
    return np.stack([s, e], axis=1)


# ---------------------------------------------------------------------------
# the full model
# ---------------------------------------------------------------------------


@dataclass
class VideoContext:
    """Per-video constants precomputed once (reused across epochs)."""

    sample: VideoSample
    appearance: list[np.ndarray]     # (l_i, d_a) float64 per tracklet
    spatial: list[np.ndarray]        # (l_i, 8) per tracklet
    spans: list[tuple[int, int]]     # global (first, last_exclusive) frames
    slots: np.ndarray                # (n, 2) tracklet slots
    categories: np.ndarray           # (n,) int
    classemes: np.ndarray            # (n, d_w)
    probs: np.ndarray                # (n, |C_obj|)

    @property
    def n(self) -> int:
        return len(self.sample.tracklets)


@dataclass
class ModelOutput:
    queries: Tensor          # (m, d_q) enhanced query embeddings
    attention: Tensor        # (2, m, n) normalized role attention
    slots: np.ndarray        # (m, 2) final regressed time slots
    links: np.ndarray        # (m, 2) argmax subject/object tracklet indices
    probs: Tensor            # (m, |C_rel|+1) predicate probabilities (last = no-relation)


class RelationModel:
    """Owns the parameter store and runs the full per-video forward pass."""

    def __init__(self, cfg, vocab: Vocab, seed: int,
                 embeddings: np.ndarray | None = None):
        if cfg.d % cfg.heads != 0:
            raise ConfigError(f"model.d={cfg.d} not divisible by model.heads={cfg.heads}")
        if cfg.d_q % cfg.heads != 0:
            raise ConfigError(f"model.d_q={cfg.d_q} not divisible by model.heads={cfg.heads}")
        self.cfg = cfg
        self.vocab = vocab
        self.anchors = build_anchors(cfg.m_c, cfg.m_d)
        self.store = ParamStore()
        self._roi_cache: dict = {}
        rng = np.random.default_rng(seed)
        h = cfg.mlp_hidden
        n_obj, n_rel = len(vocab.objects), len(vocab.predicates)

        init_feature_params(self.store, cfg.d_a, cfg.d, h, cfg.l, rng)
        for k in range(cfg.L_e):
            init_self_attention_block(self.store, f"encoder.layer{k}", cfg.d, h, rng)

        m = self.anchors.count
        self.store.add("decoder.query_embed", rng.normal(0.0, 0.02, size=(m, cfg.d_q)))
        self.store.add("decoder.pos_proj", affine_init(rng, 2, cfg.d_q))
        self._value_spec = MlpSpec(cfg.l_roi * cfg.d, h, cfg.d_v)
        self._out_spec = MlpSpec(cfg.d_v, h, cfg.d_q)
        self._offset_spec = MlpSpec(cfg.d_q, h, 2)
        self._ffn_spec_enc = MlpSpec(cfg.d, h, cfg.d)
        self._ffn_spec_dec = MlpSpec(cfg.d_q, h, cfg.d_q)
        for k in range(cfg.L_d):
            p = f"decoder.layer{k}"
            init_attention(self.store, f"{p}.self_attn", cfg.d_q, rng)
            for ln in ("ln1", "ln2", "ln3"):
                self.store.add(f"{p}.{ln}.g", np.ones(cfg.d_q))
                self.store.add(f"{p}.{ln}.b", np.zeros(cfg.d_q))
            init_mlp(self.store, f"{p}.ffn", self._ffn_spec_dec, rng)
            init_mlp(self.store, f"{p}.value_mlp", self._value_spec, rng)
            for role in ("subject", "object"):
                self.store.add(f"{p}.{role}.query_proj", affine_init(rng, cfg.d_q, cfg.d))
                self.store.add(f"{p}.{role}.key_proj", affine_init(rng, cfg.d, cfg.d))
                init_mlp(self.store, f"{p}.{role}.out", self._out_spec, rng)
            # Zero output layer: slots start exactly at the anchors.
            init_mlp(self.store, f"{p}.offset", self._offset_spec, rng, zero_output=True)

        self._classify_spec = MlpSpec(cfg.d_q + 2 * cfg.d_w, h, n_rel + 1)
        init_mlp(self.store, "head.classify", self._classify_spec, rng)

        if embeddings is None:
            embeddings = rng.normal(0.0, 1.0, size=(n_obj, cfg.d_w))
        elif embeddings.shape != (n_obj, cfg.d_w):
            raise ConfigError(
                f"embedding table shape {embeddings.shape} != ({n_obj}, {cfg.d_w})")
        self.store.add("tables.classeme", np.asarray(embeddings, dtype=np.float64),
                       trainable=False)
        self.store.add("tables.freq_bias",
                       np.full((n_obj, n_obj, n_rel), -np.log(n_rel)), trainable=False)

    # -- construction helpers ------------------------------------------------

    def build_context(self, sample: VideoSample) -> VideoContext:
        from .head import classeme
        table = self.store["tables.classeme"].data
        appearance, spatial, spans = [], [], []
        for t in sample.tracklets:
            if t.appearance.shape[1] != self.cfg.d_a:
                raise DataError(
                    f"video {sample.video_id}: tracklet {t.id} feature width "
                    f"{t.appearance.shape[1]} != model d_a={self.cfg.d_a}")
            appearance.append(t.appearance.astype(np.float64))
            spatial.append(spatial_feature(t.boxes))
            spans.append(t.slot.frame_span(sample.frame_count))
        n = len(sample.tracklets)
        slots = np.array([[t.slot.start, t.slot.end] for t in sample.tracklets]
                         ).reshape(n, 2)
        cats = np.array([t.category for t in sample.tracklets], dtype=np.int64)
        probs = (np.stack([t.probs for t in sample.tracklets])
                 if n else np.zeros((0, len(self.vocab.objects))))
        clsm = (np.stack([classeme(p, table) for p in probs])
                if n else np.zeros((0, self.cfg.d_w)))
        return VideoContext(sample=sample, appearance=appearance, spatial=spatial,
                            spans=spans, slots=slots, categories=cats,
                            classemes=clsm, probs=probs)

    # -- forward pieces -------------------------------------------------------

    def _per_frame_features(self, ctx: VideoContext) -> Tensor:
        """(S, d) per-frame features of all tracklets, stacked in tracklet order."""
        cfg = self.cfg
        app = ad.constant(np.concatenate(ctx.appearance, axis=0))
        spat = ad.constant(np.concatenate(ctx.spatial, axis=0))
        return init_tracklet_feature(self.store, app, spat, cfg.d_a, cfg.d,
                                     cfg.mlp_hidden)

    def encode_tracklets(self, h: Tensor) -> Tensor:
        if h.shape[0] == 0:
            raise DataError("cannot encode a video with no tracklets")
        for k in range(self.cfg.L_e):
            h = self_attention_block(self.store, f"encoder.layer{k}", h,
                                     self.cfg.heads, self._ffn_spec_enc)
        return h

    def _roi_weights(self, ctx: VideoContext, i: int, query_slots: np.ndarray,
                     ) -> np.ndarray:
        t0, t1 = ctx.spans[i]
        key = (ctx.sample.video_id, i, t0, t1, float(ctx.slots[i, 0]),
               float(ctx.slots[i, 1]), query_slots.tobytes())
        hit = self._roi_cache.get(key)
        if hit is None:
            hit = roi_pool_weights((ctx.slots[i, 0], ctx.slots[i, 1]), t0, t1 - t0,
                                   query_slots, ctx.sample.frame_count, self.cfg.l_roi)
            if len(self._roi_cache) > 8192:
                self._roi_cache.clear()
            self._roi_cache[key] = hit
        return hit

    def build_value_matrix(self, ctx: VideoContext, frames: Tensor,
                           query_slots: np.ndarray, prefix: str) -> Tensor:
        """(m, n, d_v) per-query value matrices: the value MLP over RoI-pooled rows.

        RoI pooling and the first value-MLP layer are both linear, so they run
        as one fused node over the stacked (S, d) frames. It contracts in the
        cheaper of two orders, picked from the operand shapes: pool the m*n
        (query, tracklet) pairs and then project them (about m*n*l_roi*d*h
        multiply-adds), or project all S frames once and then pool (about
        S*l_roi*d*h). With d == h the rule is S < m*n: short videos with many
        queries project first, long tracks with few queries pool first.
        """
        m = len(query_slots)
        p = f"{prefix}.value_mlp"
        weights = [self._roi_weights(ctx, i, query_slots) for i in range(ctx.n)]
        hidden = ad.relu(ad.pool_project(frames, weights, self.store[f"{p}.w1"])
                         + self.store[f"{p}.b1"])
        values = ad.matmul(hidden, self.store[f"{p}.w2"]) + self.store[f"{p}.b2"]
        return ad.reshape(values, (m, ctx.n, self.cfg.d_v))

    def regress_time_slots(self, queries: np.ndarray, reference: np.ndarray,
                           prefix: str) -> np.ndarray:
        offsets = mlp_forward_np(self.store, f"{prefix}.offset", self._offset_spec,
                                 queries)
        return apply_slot_offsets(reference, offsets)

    def decode(self, ctx: VideoContext, frames: Tensor, h_enc: Tensor,
               ) -> tuple[Tensor, Tensor, np.ndarray]:
        """Run the decoder stack; returns (queries, normalized attention, slots)."""
        cfg, store = self.cfg, self.store
        pos = ad.matmul(ad.constant(self.anchors.slots), store["decoder.pos_proj"])
        x = store["decoder.query_embed"]
        slots = self.anchors.slots.copy()
        attn_norm = None
        for k in range(cfg.L_d):
            p = f"decoder.layer{k}"
            h = layer_norm(x, store[f"{p}.ln1.g"], store[f"{p}.ln1.b"])
            qk = h + pos
            x = x + multi_head_attention(store, f"{p}.self_attn", qk, qk, h, cfg.heads)

            h = layer_norm(x, store[f"{p}.ln2.g"], store[f"{p}.ln2.b"])
            values = self.build_value_matrix(ctx, frames, slots, p)
            raw = role_attention(h, h_enc, store, p)
            attn_norm = normalize_attention(raw)
            x = x + cross_attend(attn_norm, values, store, p, self._out_spec)

            h = layer_norm(x, store[f"{p}.ln3.g"], store[f"{p}.ln3.b"])
            x = x + mlp_forward(store, f"{p}.ffn", self._ffn_spec_dec, h)

            slots = self.regress_time_slots(x.data, self.anchors.slots, p)
        return x, attn_norm, slots

    def forward(self, ctx: VideoContext) -> ModelOutput:
        from .head import binarize_links, classify_predicates
        cfg = self.cfg
        frames = self._per_frame_features(ctx)
        bounds = np.cumsum([0] + [len(a) for a in ctx.appearance])
        pooled = ad.stack(
            [pool_to_encoder_input(self.store, frames[int(a):int(b)], cfg.d,
                                   cfg.mlp_hidden, cfg.l)
             for a, b in zip(bounds[:-1], bounds[1:])], axis=0)
        h_enc = self.encode_tracklets(pooled)
        queries, attn, slots = self.decode(ctx, frames, h_enc)
        links = binarize_links(attn.data)
        probs = classify_predicates(self.store, queries, links, ctx.classemes,
                                    ctx.categories, self._classify_spec)
        return ModelOutput(queries=queries, attention=attn, slots=slots,
                           links=links, probs=probs)
