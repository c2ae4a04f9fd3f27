"""Independent reference implementations used as test oracles.

Everything here is written from the operation definitions directly (loops,
brute force, extended precision) and deliberately shares no code with the
package implementations it checks.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np


# --- numeric building blocks -------------------------------------------------


def mlp_oracle(x, w1, b1, w2, b2):
    """Two-layer MLP with explicit loops over rows and units."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    hidden = np.zeros((x.shape[0], w1.shape[1]))
    for r in range(x.shape[0]):
        for j in range(w1.shape[1]):
            acc = b1[j]
            for i in range(x.shape[1]):
                acc += x[r, i] * w1[i, j]
            hidden[r, j] = max(acc, 0.0)
    out = np.zeros((x.shape[0], w2.shape[1]))
    for r in range(x.shape[0]):
        for j in range(w2.shape[1]):
            acc = b2[j]
            for i in range(hidden.shape[1]):
                acc += hidden[r, i] * w2[i, j]
            out[r, j] = acc
    return out


def layer_norm_oracle(x, gain, bias, eps):
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def softmax_extended_oracle(row):
    """Softmax via long-double exponentials and a big sum."""
    row = np.asarray(row, dtype=np.longdouble)
    e = np.exp(row - row.max())
    return (e / e.sum()).astype(np.float64)


def attend_rows_oracle(attn, rows, index):
    """out[r, q] = sum over i of attn[r, q, i] * rows[index[q, i]], one
    (role, query, tracklet) triple at a time."""
    n_roles, m, n = attn.shape
    out = np.zeros((n_roles, m, rows.shape[1]))
    for r in range(n_roles):
        for q in range(m):
            for i in range(n):
                out[r, q] += attn[r, q, i] * rows[index[q, i]]
    return out


def slow_attention_oracle(x, wq, bq, wk, bk, wv, bv, wo, bo):
    """Single-head attention with explicit score loops."""
    n, d = x.shape
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    out = np.zeros((n, d))
    for i in range(n):
        scores = np.array([float(q[i] @ k[j]) / math.sqrt(d) for j in range(n)])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        mixed = np.zeros(d)
        for j in range(n):
            mixed += w[j] * v[j]
        out[i] = mixed @ wo + bo
    return out


def adam_scalar_oracle(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam trace for a fixed gradient sequence."""
    m = v = 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(theta)
    return trace


def finite_difference(fn, param: np.ndarray, coords, h: float = 1e-5):
    """Central finite differences of fn() w.r.t. the given flat coordinates."""
    flat = param.reshape(-1)
    grads = {}
    for k in coords:
        orig = flat[k]
        flat[k] = orig + h
        up = fn()
        flat[k] = orig - h
        down = fn()
        flat[k] = orig
        grads[k] = (up - down) / (2 * h)
    return grads


# --- set matching ------------------------------------------------------------


def matching_cost_oracle(predicate, target, probs_row, attn_rows, lambda_cls,
                         lambda_att, clamp: float = 1e-7) -> float:
    """Cost of matching one GT relation to one prediction, from the definition:
    the weighted negative log-probability of the GT predicate plus the
    weighted mean clamped BCE between the (2, n) link targets and attention.
    """
    p = max(float(probs_row[predicate]), clamp)
    return -lambda_cls * math.log(p) + lambda_att * bce_oracle(target, attn_rows, clamp)


def set_loss_oracle(predicates, links, probs, attn, sigma, lambda_cls, lambda_att,
                    clamp: float = 1e-7) -> float:
    """One video's set-matching loss under the assignment sigma: the matching
    cost of every (GT relation j, prediction sigma[j]) pair, plus the weighted
    negative no-relation log-probability of every prediction left unmatched."""
    total = 0.0
    for j, q in enumerate(sigma):
        total += matching_cost_oracle(predicates[j], links[:, j], probs[q],
                                      attn[:, q], lambda_cls, lambda_att, clamp)
    for q in sorted(set(range(probs.shape[0])) - set(int(s) for s in sigma)):
        total += -lambda_cls * math.log(max(float(probs[q, -1]), clamp))
    return total


# --- assignment --------------------------------------------------------------


def hungarian_brute_force(cost: np.ndarray) -> float:
    """Exact optimal assignment cost by enumerating all permutations."""
    n = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def assignment_rules_oracle(viou: np.ndarray, tracklet_ids, gt_ids, threshold):
    """The two assignment rules evaluated directly on a vIoU table."""
    assigned = {}
    for i, tid in enumerate(tracklet_ids):
        best = viou[i].max()
        candidates = [gt_ids[j] for j in range(len(gt_ids)) if viou[i, j] == best]
        if best >= threshold:
            assigned[tid] = min(candidates)
    for j, gid in enumerate(gt_ids):
        best = viou[:, j].max()
        candidates = [tracklet_ids[i] for i in range(len(tracklet_ids))
                      if viou[i, j] == best]
        tid = min(candidates)
        if best > 0.0 and tid not in assigned:
            assigned[tid] = gid
    by_gt = {gid: sorted(t for t, g in assigned.items() if g == gid) for gid in gt_ids}
    return by_gt


# --- vIoU --------------------------------------------------------------------


def box_iou_scalar(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return inter / union if union > 0 else 0.0


def viou_oracle(frames_a: dict, frames_b: dict) -> float:
    """vIoU from explicit frame->box dictionaries."""
    shared = sorted(set(frames_a) & set(frames_b))
    union = len(set(frames_a) | set(frames_b))
    if union == 0:
        return 0.0
    return sum(box_iou_scalar(frames_a[f], frames_b[f]) for f in shared) / union


def track_frames(track, frame_count: int) -> dict:
    """frame -> box dictionary for a tracklet-like object."""
    start = int(math.floor(track.slot.start * frame_count + 1e-9))
    return {start + i: track.boxes[i] for i in range(len(track.boxes))}


def slot_frames(slot, frame_count: int) -> set:
    """The integer frames a normalized slot covers."""
    return set(range(int(math.floor(slot.start * frame_count + 1e-9)),
                     int(math.ceil(slot.end * frame_count - 1e-9))))


def cut_frames(track, slot, frame_count: int) -> dict | None:
    """frame -> box of ``track`` on the frames of its intersection with
    ``slot``; None if they do not intersect. An intersection covers at least
    one frame: where none of its frames is the track's (it is narrower than a
    frame, or starts a float ulp below the track's end), it covers its first
    frame, or the track's last frame if that comes first."""
    start, end = max(track.slot.start, slot.start), min(track.slot.end, slot.end)
    if start >= end:
        return None
    frames = track_frames(track, frame_count)
    inter = SimpleNamespace(start=start, end=end)
    kept = {f: box for f, box in frames.items() if f in slot_frames(inter, frame_count)}
    first = min(int(math.floor(start * frame_count + 1e-9)), max(frames))
    return kept or {first: frames[first]}


# --- relation detection ------------------------------------------------------


def greedy_hits_oracle(ranked_preds, sample, viou_threshold: float,
                       walked: list | None = None) -> list:
    """Greedy RelDet matching, testing every (prediction, GT) pair in full.

    Each ranked prediction claims the first unused GT relation, in index
    order, whose predicate and participant categories agree and whose two
    participants reach vIoU >= threshold with the prediction's tracklets,
    each side cut to its own relation slot. A prediction naming a tracklet
    the video lacks, or whose slot misses a participant's, matches nothing.
    Each unused, label-agreeing pair whose localization is tested is
    appended to ``walked`` as (prediction, GT relation), if it is given.
    """
    tracks = {t.id: t for t in sample.tracklets}
    gts = {t.id: t for t in sample.gt_objects}
    frame_count = sample.frame_count

    def matches(pred, rel) -> bool:
        sub = tracks.get(pred.subject_tracklet_id)
        obj = tracks.get(pred.object_tracklet_id)
        if sub is None or obj is None or pred.predicate != rel.predicate:
            return False
        pairs = ((sub, gts[rel.subject_gt_id]), (obj, gts[rel.object_gt_id]))
        if any(det.category != gt.category for det, gt in pairs):
            return False
        if walked is not None:
            walked.append((pred, rel))
        for det, gt in pairs:
            det_part = cut_frames(det, pred.slot, frame_count)
            gt_part = cut_frames(gt, rel.slot, frame_count)
            if det_part is None or gt_part is None:
                return False
            if viou_oracle(det_part, gt_part) < viou_threshold:
                return False
        return True

    used = set()
    hits = []
    for pred in ranked_preds:
        claimed = next((g for g, rel in enumerate(sample.gt_relations)
                        if g not in used and matches(pred, rel)), None)
        if claimed is not None:
            used.add(claimed)
        hits.append(claimed is not None)
    return hits


def infer_triplets_oracle(probs, links, tracklets, top_k_per_query: int = 10) -> list:
    """Candidate-then-filter triplet assembly, as (subject id, object id,
    predicate, score, slot start, slot end) tuples: every query's top-k
    non-background categories (stable on ties) over a linked pair of distinct,
    temporally overlapping tracklets, then the best score per (predicate,
    subject, object), ranked by descending score, then that key."""
    n_rel = probs.shape[1] - 1
    best = {}
    for j in range(len(links)):
        sub, obj = tracklets[int(links[j][0])], tracklets[int(links[j][1])]
        start = max(sub.slot.start, obj.slot.start)
        end = min(sub.slot.end, obj.slot.end)
        if sub.id == obj.id or start >= end:
            continue
        ranked = sorted(range(n_rel), key=lambda c: (-probs[j, c], c))
        for c in ranked[:min(top_k_per_query, n_rel)]:
            key = (c, sub.id, obj.id)
            if key not in best or probs[j, c] > best[key][3]:
                best[key] = (sub.id, obj.id, c, float(probs[j, c]), start, end)
    return sorted(best.values(), key=lambda t: (-t[3], t[2], t[0], t[1]))


# --- RoI pooling -------------------------------------------------------------


def roi_pool_oracle(feature: np.ndarray, track_span, query_span, l_roi: int):
    """Brute-force bin averaging on explicit global frame indices.

    track_span/query_span are (first_frame, last_frame_exclusive) integers in
    global frame coordinates; feature rows align with the track span.
    """
    t0, t1 = track_span
    q0, q1 = query_span
    lo, hi = max(t0, q0), min(t1, q1)
    d = feature.shape[1]
    out = np.zeros((l_roi, d))
    if hi <= lo:
        return out
    a, b = lo - t0, hi - t0
    for bin_idx in range(l_roi):
        left = a + (b - a) * bin_idx / l_roi
        right = a + (b - a) * (bin_idx + 1) / l_roi
        rows = [k for k in range(a, b) if left <= k + 0.5 < right]
        if rows:
            out[bin_idx] = feature[rows].mean(axis=0)
        else:
            mid = (left + right) / 2
            best = min(range(a, b),
                       key=lambda k: (abs(k + 0.5 - mid), k))
            out[bin_idx] = feature[best]
    return out


def encoder_pool_oracle(feature: np.ndarray, l_pool: int) -> np.ndarray:
    """Index-based adaptive average pooling with the documented bin rule."""
    l_i = feature.shape[0]
    out = np.zeros((l_pool, feature.shape[1]))
    for j in range(l_pool):
        a = min(j * l_i // l_pool, l_i - 1)
        b = min(max((j + 1) * l_i // l_pool, a + 1), l_i)
        out[j] = feature[a:b].mean(axis=0)
    return out


# --- attention normalization --------------------------------------------------


def double_softmax_oracle(raw: np.ndarray) -> np.ndarray:
    """Two independent softmax passes multiplied entrywise."""
    two, m, n = raw.shape
    over_tracklets = np.zeros_like(raw)
    for r in range(two):
        for j in range(m):
            e = np.exp(raw[r, j] - raw[r, j].max())
            over_tracklets[r, j] = e / e.sum()
    over_roles = np.zeros_like(raw)
    for j in range(m):
        for i in range(n):
            col = raw[:, j, i]
            e = np.exp(col - col.max())
            over_roles[:, j, i] = e / e.sum()
    return over_tracklets * over_roles


# --- losses ------------------------------------------------------------------


def bce_oracle(target: np.ndarray, pred: np.ndarray, clamp: float = 1e-7) -> float:
    """Mean binary cross-entropy with clamping, elementwise loops."""
    t = target.reshape(-1)
    p = np.clip(pred.reshape(-1), clamp, 1 - clamp)
    total = 0.0
    for ti, pi in zip(t, p):
        total += -(ti * math.log(pi) + (1 - ti) * math.log(1 - pi))
    return total / len(t)


# --- ranking metrics ---------------------------------------------------------


def average_precision_oracle(hit_flags) -> float:
    """Non-interpolated AP from ranked hit flags (sum of precisions at hits
    over total positives); caller divides by GT count."""
    tp = 0
    acc = 0.0
    for rank, hit in enumerate(hit_flags, start=1):
        if hit:
            tp += 1
            acc += tp / rank
    return acc


def precision_at_k_oracle(ranked_triples, gt_triples, k: int) -> float:
    """Distinct credited triples in the top k over min(k, #preds)."""
    denom = min(k, len(ranked_triples))
    if denom == 0:
        return 0.0
    credited = set()
    for triple in ranked_triples[:k]:
        if triple in set(gt_triples):
            credited.add(triple)
    return len(credited) / denom


# --- synthetic-scenario rules -------------------------------------------------


def synth_rule_checker(name: str, boxes_a: np.ndarray, boxes_b: np.ndarray) -> bool:
    """Independent re-statement of the generator's geometric predicates."""
    ca = np.stack([(boxes_a[:, 0] + boxes_a[:, 2]) / 2,
                   (boxes_a[:, 1] + boxes_a[:, 3]) / 2], axis=1)
    cb = np.stack([(boxes_b[:, 0] + boxes_b[:, 2]) / 2,
                   (boxes_b[:, 1] + boxes_b[:, 3]) / 2], axis=1)
    dist = np.sqrt(((ca - cb) ** 2).sum(axis=1))
    if name == "approaching":
        steps = dist[1:] - dist[:-1]
        return bool(np.all(steps < -1e-9) and (dist[0] - dist[-1]) >= 0.08)
    if name == "moving-away":
        steps = dist[1:] - dist[:-1]
        return bool(np.all(steps > 1e-9) and (dist[-1] - dist[0]) >= 0.08)
    if name == "above":
        return bool(np.all(ca[:, 1] + 0.08 <= cb[:, 1]))
    if name == "beneath":
        return bool(np.all(cb[:, 1] + 0.08 <= ca[:, 1]))
    if name == "faster":
        sa = np.sqrt(((ca[1:] - ca[:-1]) ** 2).sum(axis=1)).mean()
        sb = np.sqrt(((cb[1:] - cb[:-1]) ** 2).sum(axis=1)).mean()
        return bool(sa >= 2 * sb + 0.001 and sa >= 0.004)
    if name == "bigger":
        area_a = ((boxes_a[:, 2] - boxes_a[:, 0]) * (boxes_a[:, 3] - boxes_a[:, 1])).mean()
        area_b = ((boxes_b[:, 2] - boxes_b[:, 0]) * (boxes_b[:, 3] - boxes_b[:, 1])).mean()
        return bool(area_a >= 2.5 * area_b)
    raise ValueError(f"unknown rule {name}")
