"""Synthetic moving-box scenario generator.

Videos contain constant-velocity box trajectories; ground-truth predicates
are derived purely from the generated geometry by the rule set below, so an
independent scan of the emitted boxes reproduces the GT exactly. Detected
tracklets add optional box jitter, slot trimming, class-probability noise and
per-category appearance features to the GT box tracks, plus distractors.

Object categories influence size and speed ranges, so predicate statistics
correlate with category pairs (what the frequency bias is meant to pick up)
while each instance is still decided by geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (MAX_FRAME_COUNT, GtObject, GtRelation, TimeSlot, Tracklet, VideoSample,
                   Vocab, restrict_track)
from .errors import ConfigError

MIN_SHARED_FRAMES = 4
_MONO_TOL = 1e-9

_OBJECT_NAMES = (
    "person", "dog", "cat", "car", "bicycle", "ball", "bird", "horse",
    "sheep", "boat", "kite", "skateboard", "suitcase", "chair", "toy", "drone",
)


def _centers(boxes: np.ndarray) -> np.ndarray:
    return np.stack([(boxes[:, 0] + boxes[:, 2]) * 0.5,
                     (boxes[:, 1] + boxes[:, 3]) * 0.5], axis=1)


def _areas(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def _speed(boxes: np.ndarray) -> float:
    c = _centers(boxes)
    return float(np.linalg.norm(np.diff(c, axis=0), axis=1).mean())


def rule_approaching(a: np.ndarray, b: np.ndarray) -> bool:
    """Center distance strictly decreases every frame, total drop >= 0.08."""
    d = np.linalg.norm(_centers(a) - _centers(b), axis=1)
    return bool(np.all(np.diff(d) < -_MONO_TOL) and d[0] - d[-1] >= 0.08)


def rule_moving_away(a: np.ndarray, b: np.ndarray) -> bool:
    """Center distance strictly increases every frame, total gain >= 0.08."""
    d = np.linalg.norm(_centers(a) - _centers(b), axis=1)
    return bool(np.all(np.diff(d) > _MONO_TOL) and d[-1] - d[0] >= 0.08)


def rule_above(a: np.ndarray, b: np.ndarray) -> bool:
    """a's center stays at least 0.08 higher (smaller y) on every frame."""
    return bool(np.all(_centers(a)[:, 1] + 0.08 <= _centers(b)[:, 1]))


def rule_beneath(a: np.ndarray, b: np.ndarray) -> bool:
    return rule_above(b, a)


def rule_faster(a: np.ndarray, b: np.ndarray) -> bool:
    """a moves at least twice as fast as b, and fast in absolute terms."""
    sa, sb = _speed(a), _speed(b)
    return bool(sa >= 2.0 * sb + 0.001 and sa >= 0.004)


def rule_bigger(a: np.ndarray, b: np.ndarray) -> bool:
    """a's mean box area is at least 2.5x b's."""
    return bool(float(_areas(a).mean()) >= 2.5 * float(_areas(b).mean()))


PREDICATE_RULES = {
    "approaching": rule_approaching,
    "moving-away": rule_moving_away,
    "above": rule_above,
    "beneath": rule_beneath,
    "faster": rule_faster,
    "bigger": rule_bigger,
}


@dataclass(frozen=True)
class SynthConfig:
    videos: int = 32
    frame_count: int = 40
    object_categories: int = 8
    d_a: int = 1024
    objects_min: int = 3
    objects_max: int = 4
    distractors: int = 3
    box_jitter: float = 0.03
    slot_trim_frames: int = 2
    prob_noise: float = 0.1
    feature_noise: float = 0.1
    min_relations: int = 1
    max_relations: int = 12
    rules: tuple[str, ...] = tuple(PREDICATE_RULES)

    def __post_init__(self):
        if self.videos < 0:
            raise ConfigError(f"synth.videos must be >= 0, got {self.videos}")
        if not 8 <= self.frame_count <= MAX_FRAME_COUNT:
            raise ConfigError(f"synth.frame_count must lie in [8, {MAX_FRAME_COUNT}], "
                              f"got {self.frame_count}")
        if not (1 <= self.objects_min <= self.objects_max):
            raise ConfigError("synth.objects_min/objects_max must satisfy "
                              f"1 <= {self.objects_min} <= {self.objects_max}")
        if self.object_categories < 2:
            raise ConfigError("synth.object_categories must be >= 2")
        if self.d_a < 1:
            raise ConfigError("synth.d_a must be >= 1")
        if self.distractors < 0:
            raise ConfigError("synth.distractors must be >= 0")
        if self.min_relations < 0 or self.max_relations < self.min_relations:
            raise ConfigError("synth.min_relations/max_relations out of order")
        unknown = [r for r in self.rules if r not in PREDICATE_RULES]
        if unknown:
            raise ConfigError(f"synth.rules: unknown rule names {unknown}")
        if not self.rules:
            raise ConfigError("synth.rules must not be empty")
        repeated = sorted({r for r in self.rules if self.rules.count(r) > 1})
        if repeated:
            raise ConfigError(f"synth.rules: repeated rule names {repeated}")
        for name in ("box_jitter", "prob_noise", "feature_noise"):
            value = getattr(self, name)
            # Asks for the valid case, so NaN fails it too.
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"synth.{name} must be a finite number >= 0, got {value!r}")


def synth_vocab(cfg: SynthConfig) -> Vocab:
    names = [
        _OBJECT_NAMES[i] if i < len(_OBJECT_NAMES) else f"object{i:02d}"
        for i in range(cfg.object_categories)
    ]
    return Vocab(objects=names, predicates=cfg.rules)


def derive_relations(cfg: SynthConfig, frame_count: int,
                     objects: list[GtObject]) -> list[GtRelation]:
    """Scan every ordered object pair against every enabled rule."""
    relations = []
    first = {o.id: o.slot.frame_span(frame_count)[0] for o in objects}
    for a in objects:
        for b in objects:
            if a.id == b.id:
                continue
            # Over at least MIN_SHARED_FRAMES frames, the two slots' shared
            # span is the same whichever track it is cut from.
            span = restrict_track(a, b.slot, frame_count)
            if span is None or span[1] - span[0] < MIN_SHARED_FRAMES:
                continue
            lo, hi = span
            boxes_a = a.boxes[lo - first[a.id]:hi - first[a.id]]
            boxes_b = b.boxes[lo - first[b.id]:hi - first[b.id]]
            for pred, name in enumerate(cfg.rules):
                if PREDICATE_RULES[name](boxes_a, boxes_b):
                    relations.append(GtRelation(
                        subject_gt_id=a.id, object_gt_id=b.id, predicate=pred,
                        slot=TimeSlot(lo / frame_count, hi / frame_count)))
    return relations


class _SceneSampler:
    """Draws one video's ground-truth objects from a shared RNG stream."""

    def __init__(self, cfg: SynthConfig, rng: np.random.Generator,
                 size_scale: np.ndarray):
        self.cfg = cfg
        self.rng = rng
        self.size_scale = size_scale

    def _slot_frames(self, frame_count: int, min_len: int) -> tuple[int, int]:
        rng = self.rng
        lead = max(frame_count // 5, 1)
        start = int(rng.integers(0, lead))
        end = int(rng.integers(frame_count - lead + 1, frame_count + 1))
        if end - start < min_len:
            start, end = 0, frame_count
        return start, end

    def _trajectory(self, n_frames: int, half_w: float, half_h: float,
                    start: np.ndarray, vel: np.ndarray) -> np.ndarray:
        # Shrink velocity so the whole linear path keeps the box inside margins.
        lo = np.array([half_w + 0.01, half_h + 0.01])
        hi = np.array([0.99 - half_w, 0.99 - half_h])
        start = np.clip(start, lo, hi)
        end = start + vel * (n_frames - 1)
        scale = 1.0
        for k in range(2):
            if vel[k] > 0 and end[k] > hi[k]:
                scale = min(scale, (hi[k] - start[k]) / (vel[k] * (n_frames - 1)))
            if vel[k] < 0 and end[k] < lo[k]:
                scale = min(scale, (lo[k] - start[k]) / (vel[k] * (n_frames - 1)))
        vel = vel * max(scale, 0.0)
        t = np.arange(n_frames)[:, None]
        centers = start[None, :] + vel[None, :] * t
        return np.stack([centers[:, 0] - half_w, centers[:, 1] - half_h,
                         centers[:, 0] + half_w, centers[:, 1] + half_h], axis=1)

    def _speed_for(self, category: int) -> float:
        # Category picks a speed band (still / slow / fast) with spread.
        band = category % 3
        base = (0.0005, 0.003, 0.010)[band]
        return base * float(self.rng.uniform(0.7, 1.4))

    def sample_objects(self, frame_count: int, next_id: int, count: int,
                       ) -> list[GtObject]:
        cfg, rng = self.cfg, self.rng
        specs = []
        for _ in range(count):
            cat = int(rng.integers(0, cfg.object_categories))
            s = self.size_scale[cat] * float(rng.uniform(0.85, 1.2))
            half_w = s * float(rng.uniform(0.8, 1.25)) / 2.0
            half_h = s * float(rng.uniform(0.8, 1.25)) / 2.0
            t0, t1 = self._slot_frames(frame_count, min_len=8)
            start = rng.uniform(0.15, 0.85, size=2)
            direction = rng.normal(size=2)
            direction /= max(np.linalg.norm(direction), 1e-9)
            vel = direction * self._speed_for(cat)
            specs.append([cat, half_w, half_h, t0, t1, start, vel])

        # Bias a couple of ordered pairs toward approach/retreat geometry.
        if count >= 2:
            n_intents = int(rng.integers(1, min(3, count)))
            for _ in range(n_intents):
                ia, ib = rng.choice(count, size=2, replace=False)
                pa, pb = specs[ia], specs[ib]
                rel = pa[5] - pb[5]
                norm = max(np.linalg.norm(rel), 0.05)
                shared = max(min(pa[4], pb[4]) - max(pa[3], pb[3]), 2)
                alpha = float(rng.uniform(0.4, 0.8)) / shared
                sign = -1.0 if rng.uniform() < 0.5 else 1.0
                vel = pb[6] + sign * alpha * rel
                speed = np.linalg.norm(vel)
                if speed > 0.02:
                    vel = vel * (0.02 / speed)
                pa[6] = vel

        objects = []
        for k, (cat, half_w, half_h, t0, t1, start, vel) in enumerate(specs):
            boxes = self._trajectory(t1 - t0, half_w, half_h, start, vel)
            objects.append(GtObject(
                id=next_id + k, slot=TimeSlot(t0 / frame_count, t1 / frame_count),
                boxes=boxes, category=cat))
        return objects


def _noisy_probs(rng: np.random.Generator, category: int, n_cats: int,
                 noise: float) -> np.ndarray:
    p = np.zeros(n_cats)
    p[category] = 1.0
    if noise > 0.0:
        p = (1.0 - noise) * p + noise * rng.dirichlet(np.ones(n_cats))
        p = p / p.sum()
    return p


def _detect_from_gt(cfg: SynthConfig, rng: np.random.Generator, frame_count: int,
                    gt: GtObject, prototypes: np.ndarray, tid: int) -> Tracklet:
    t0, t1 = gt.slot.frame_span(frame_count)
    length = t1 - t0
    if cfg.slot_trim_frames > 0:
        max_trim = cfg.slot_trim_frames
        budget = length - max(MIN_SHARED_FRAMES, 2)
        a = int(rng.integers(0, max_trim + 1))
        b = int(rng.integers(0, max_trim + 1))
        while a + b > max(budget, 0):
            if a >= b:
                a -= 1
            else:
                b -= 1
        t0, t1 = t0 + a, t1 - b
        boxes = gt.boxes[a:length - b].copy()
    else:
        boxes = gt.boxes.copy()

    if cfg.box_jitter > 0.0:
        w = boxes[:, 2] - boxes[:, 0]
        h = boxes[:, 3] - boxes[:, 1]
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5 + rng.normal(0, cfg.box_jitter, len(boxes)) * w
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5 + rng.normal(0, cfg.box_jitter, len(boxes)) * h
        w = np.clip(w * np.exp(rng.normal(0, cfg.box_jitter, len(boxes))), 1e-3, 0.98)
        h = np.clip(h * np.exp(rng.normal(0, cfg.box_jitter, len(boxes))), 1e-3, 0.98)
        cx = np.clip(cx, w / 2 + 1e-4, 1.0 - w / 2 - 1e-4)
        cy = np.clip(cy, h / 2 + 1e-4, 1.0 - h / 2 - 1e-4)
        boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)

    feats = np.repeat(prototypes[gt.category][None, :], t1 - t0, axis=0)
    if cfg.feature_noise > 0.0:
        feats = feats + cfg.feature_noise * rng.normal(size=feats.shape)

    return Tracklet(
        id=tid, slot=TimeSlot(t0 / frame_count, t1 / frame_count), boxes=boxes,
        appearance=feats, category=gt.category,
        probs=_noisy_probs(rng, gt.category, cfg.object_categories, cfg.prob_noise))


def synth_generate(cfg: SynthConfig, seed: int) -> tuple[list[VideoSample], Vocab]:
    """Generate a dataset; byte-identical for identical (cfg, seed)."""
    vocab = synth_vocab(cfg)
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(cfg.object_categories, cfg.d_a)).astype(np.float32)
    c = cfg.object_categories
    size_scale = 0.05 + 0.11 * np.arange(c) / max(c - 1, 1)
    sampler = _SceneSampler(cfg, rng, size_scale)

    samples = []
    for v in range(cfg.videos):
        frame_count = cfg.frame_count
        for attempt in range(200):
            n_obj = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
            gt_objects = sampler.sample_objects(frame_count, 0, n_obj)
            relations = derive_relations(cfg, frame_count, gt_objects)
            if cfg.min_relations <= len(relations) <= cfg.max_relations:
                break
        else:
            raise ConfigError(
                "synth: could not hit the configured relation-count window "
                f"[{cfg.min_relations}, {cfg.max_relations}] in 200 attempts; "
                "relax min/max_relations or the object counts")

        tracklets = [
            _detect_from_gt(cfg, rng, frame_count, g, prototypes, tid=g.id)
            for g in gt_objects
        ]
        n_gt = len(gt_objects)
        distractor_gt = sampler.sample_objects(frame_count, n_gt, cfg.distractors)
        for d in distractor_gt:
            tracklets.append(_detect_from_gt(cfg, rng, frame_count, d, prototypes,
                                             tid=d.id))
        samples.append(VideoSample(
            video_id=f"{v:04d}", frame_count=frame_count, tracklets=tracklets,
            gt_objects=gt_objects, gt_relations=relations))
    return samples, vocab
