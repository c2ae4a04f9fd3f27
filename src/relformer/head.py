"""Relation prediction head: link binarization, classeme features, frequency
bias, predicate classification, and triplet assembly.

The no-relation class occupies one extra logit slot after the real predicate
categories; its frequency bias is always zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TimeSlot, Tracklet, VideoSample
from .dataset_io import read_feature_file
from .errors import DataError
from .nn import ParamStore, mlp_forward


@dataclass(frozen=True)
class RelationTriplet:
    """One scored prediction; the slot is the intersection of the two
    linked tracklets' slots."""

    subject_tracklet_id: int
    object_tracklet_id: int
    predicate: int
    score: float
    slot: TimeSlot

    def key(self) -> tuple[int, int, int]:
        return (self.predicate, self.subject_tracklet_id, self.object_tracklet_id)


def binarize_links(attention: np.ndarray) -> np.ndarray:
    """(m, 2) argmax tracklet index per (query, role); ties pick the lowest index."""
    return np.stack([np.argmax(attention[0], axis=1),
                     np.argmax(attention[1], axis=1)], axis=1)


def classeme(probs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Probability-weighted average of category embeddings: table^T @ probs,
    in the table's dtype."""
    return table.T @ np.asarray(probs, dtype=table.dtype)


def build_freq_bias(samples: list[VideoSample], n_objects: int, n_predicates: int,
                    smoothing: float = 1e-3) -> np.ndarray:
    """(C_obj, C_obj, C_rel) log-probabilities of predicate given the
    subject/object category pair, from add-epsilon smoothed training counts,
    in float64; storing it in the model's table rounds it once. Unseen pairs
    get the uniform log 1/|C_rel|."""
    counts = np.zeros((n_objects, n_objects, n_predicates))
    for sample in samples:
        cats = {t.id: t.category for t in sample.gt_objects}
        for rel in sample.gt_relations:
            counts[cats[rel.subject_gt_id], cats[rel.object_gt_id], rel.predicate] += 1.0
    totals = counts.sum(axis=2, keepdims=True)
    return np.log((counts + smoothing) / (totals + smoothing * n_predicates))


def classify_predicates(store: ParamStore, queries: Tensor, links: np.ndarray,
                        classemes: np.ndarray, categories: np.ndarray) -> Tensor:
    """(m, |C_rel|+1) probabilities from [query; subject classeme; object
    classeme] plus the category pair's frequency-bias fiber (zero for the
    no-relation slot)."""
    m = queries.shape[0]
    f_s = classemes[links[:, 0]]
    f_o = classemes[links[:, 1]]
    joint = ad.concat([queries, ad.constant(f_s), ad.constant(f_o)], axis=1)
    logits = mlp_forward(store, "head.classify", joint)
    bias = store["tables.freq_bias"].data
    fibers = bias[categories[links[:, 0]], categories[links[:, 1]]]
    padded = np.concatenate([fibers, np.zeros((m, 1), fibers.dtype)], axis=1)
    return ad.softmax(logits + ad.constant(padded), axis=-1)


def infer_triplets(probs: np.ndarray, links: np.ndarray, tracklets: list[Tracklet],
                   top_k_per_query: int) -> list[RelationTriplet]:
    """Assemble candidates: per query, the top-k non-background categories by
    probability; drop self-paired and temporally disjoint links; deduplicate
    by (predicate, subject, object) keeping the best score; order by
    descending score, then key.

    Candidates stay arrays until deduplication, so only the surviving
    triplets are built. Duplicates of one key share its tracklet pair, hence
    its slot, so which of two equal best scores survives does not show.
    An ensemble passes the query rows of all its models at once, so each key
    keeps its best score over the models. ``tracklets`` must not be empty.
    ``top_k_per_query`` is the run config's ``eval.top_k_per_query``.
    """
    n_rel = probs.shape[1] - 1
    k = min(top_k_per_query, n_rel)
    ids = np.array([t.id for t in tracklets], dtype=np.int64)
    pairs, pair_of = np.unique(np.asarray(links), axis=0, return_inverse=True)
    slots = [tracklets[si].slot.intersect(tracklets[oi].slot)
             if ids[si] != ids[oi] else None for si, oi in pairs.tolist()]
    live = np.flatnonzero(np.array([s is not None for s in slots])[pair_of.reshape(-1)])
    rows = probs[live, :n_rel]
    order = np.argsort(-rows, axis=1, kind="stable")[:, :k]
    score = np.take_along_axis(rows, order, axis=1).reshape(-1)
    pred = order.reshape(-1)
    pair = np.repeat(pair_of.reshape(-1)[live], order.shape[1])
    # Visit candidates best score first; np.unique keeps each key's first visit.
    desc = np.argsort(-score, kind="stable")
    _, first = np.unique((pred * len(pairs) + pair)[desc], return_index=True)
    best = desc[first]
    sub, obj = ids[pairs[pair[best], 0]], ids[pairs[pair[best], 1]]
    pred, score, pair = pred[best], score[best], pair[best]
    ranked = np.lexsort((obj, sub, pred, -score))
    return [RelationTriplet(subject_tracklet_id=int(sub[c]), object_tracklet_id=int(obj[c]),
                            predicate=int(pred[c]), score=float(score[c]),
                            slot=slots[pair[c]])
            for c in ranked.tolist()]


def triplets_to_json(video_id: str, triplets: list[RelationTriplet]) -> dict:
    return {
        "video_id": video_id,
        "relations": [
            {"subject_tid": t.subject_tracklet_id, "object_tid": t.object_tracklet_id,
             "predicate": t.predicate, "score": t.score,
             "start": t.slot.start, "end": t.slot.end}
            for t in triplets
        ],
    }


def load_embedding_table(path: str, n_objects: int, d_w: int) -> np.ndarray:
    """Load a pluggable word-embedding table from a TRKF feature file, as
    its float32 rows."""
    table = read_feature_file(path)
    if table.shape != (n_objects, d_w):
        raise DataError(
            f"{path}: embedding table shape {table.shape} != ({n_objects}, {d_w})")
    return table
