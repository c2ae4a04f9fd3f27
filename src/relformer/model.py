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

The encoder input is the same pooled MLP (``nn.pooled_mlp_forward``) with
one fixed-length pooling per tracklet, i.e. m=1, which always pools first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import VideoSample, Vocab
from .errors import ConfigError, DataError
from .features import (init_feature_params, init_tracklet_feature, pool_to_encoder_input,
                       spatial_feature)
from .nn import (MlpSpec, ParamStore, affine_init, init_attention, init_mlp,
                 init_self_attention_block, layer_norm, mlp_forward,
                 multi_head_attention, pooled_mlp_forward, self_attention_block)


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


# ---------------------------------------------------------------------------
# the full model
# ---------------------------------------------------------------------------


@dataclass
class VideoContext:
    """Per-video constants, built once by ``RelationModel.build_context`` and
    reused across layers and epochs.

    A context belongs to the model that built it: ``roi_weights`` holds each
    tracklet's (m, l_roi, l_i) pooling weights against that model's anchors.
    They are filled on the first forward pass rather than in
    ``build_context``, so building contexts for a run that never runs a
    forward pass (``train --epochs 0``) stays cheap.
    """

    sample: VideoSample
    appearance: list[np.ndarray]     # (l_i, d_a) float64 per tracklet
    spatial: list[np.ndarray]        # (l_i, 8) per tracklet
    spans: list[tuple[int, int]]     # global (first, last_exclusive) frames
    slots: np.ndarray                # (n, 2) tracklet slots
    categories: np.ndarray           # (n,) int
    classemes: np.ndarray            # (n, d_w)
    roi_weights: list[np.ndarray] | None = None

    @property
    def n(self) -> int:
        return len(self.sample.tracklets)


@dataclass
class ModelOutput:
    attention: Tensor        # (2, m, n) normalized role attention
    links: np.ndarray        # (m, 2) argmax subject/object tracklet indices
    probs: Tensor            # (m, |C_rel|+1) predicate probabilities (last = no-relation)


class RelationModel:
    """Owns the parameter store and runs the full per-video forward pass."""

    def __init__(self, cfg, vocab: Vocab, seed: int,
                 embeddings: np.ndarray | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.anchors = build_anchors(cfg.m_c, cfg.m_d)
        self.store = ParamStore()
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
        clsm = (np.stack([classeme(t.probs, table) for t in sample.tracklets])
                if n else np.zeros((0, self.cfg.d_w)))
        return VideoContext(sample=sample, appearance=appearance, spatial=spatial,
                            spans=spans, slots=slots, categories=cats,
                            classemes=clsm)

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

    def build_value_matrix(self, ctx: VideoContext, frames: Tensor, prefix: str) -> Tensor:
        """(m, n, d_v) per-query value matrices: the value MLP over RoI-pooled rows,
        as one pooled-MLP node whose contraction order the module docstring gives.

        The pooling weights against the anchors are computed on the first
        call for a context and kept on it as ``ctx.roi_weights``.
        """
        if ctx.roi_weights is None:
            ctx.roi_weights = [
                roi_pool_weights((s, e), t0, t1 - t0, self.anchors.slots,
                                 ctx.sample.frame_count, self.cfg.l_roi)
                for (s, e), (t0, t1) in zip(ctx.slots, ctx.spans)]
        values = pooled_mlp_forward(self.store, f"{prefix}.value_mlp", frames,
                                    ctx.roi_weights)
        return ad.reshape(values, (self.anchors.count, ctx.n, self.cfg.d_v))

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
            x = x + cross_attend(attn_norm, values, store, p, self._out_spec)

            h = layer_norm(x, store[f"{p}.ln3.g"], store[f"{p}.ln3.b"])
            x = x + mlp_forward(store, f"{p}.ffn", self._ffn_spec_dec, h)
        return x, attn_norm

    def forward(self, ctx: VideoContext) -> ModelOutput:
        from .head import binarize_links, classify_predicates
        frames = self._per_frame_features(ctx)
        pooled = pool_to_encoder_input(self.store, frames,
                                       [len(a) for a in ctx.appearance], self.cfg.l)
        h_enc = self.encode_tracklets(pooled)
        queries, attn = self.decode(ctx, frames, h_enc)
        links = binarize_links(attn.data)
        probs = classify_predicates(self.store, queries, links, ctx.classemes,
                                    ctx.categories, self._classify_spec)
        return ModelOutput(attention=attn, links=links, probs=probs)
