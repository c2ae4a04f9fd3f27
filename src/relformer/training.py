"""Set-matching training: ground-truth predicate targets, matching cost,
Hungarian assignment, the total loss, and the optimization loop.

The GT predicate set is padded with background entries to the query count m.
The matching cost per (GT, prediction) pair combines the negative predicate
log-probability and a binary cross-entropy on the normalized role attention
(clamped into [1e-7, 1-1e-7], averaged over the 2n entries). The assignment
itself is treated as a constant; gradient flows through the classification
and attention terms of the matched pairs plus the background classification
of the rest.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .autodiff import Tensor
from .data import VideoSample, assign_tracklets_to_gt
from .errors import DataError, NumericsError, UsageError
from .head import build_freq_bias
from .model import ModelOutput, RelationModel, VideoContext
from .nn import Adam, clip_grad_norm

BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class GtPredicate:
    """One GT entry: a predicate category plus binary link targets, or a
    background pad (predicate None, all-zero targets)."""

    predicate: int | None
    attention: np.ndarray  # (2, n) in {0, 1}

    @property
    def is_background(self) -> bool:
        return self.predicate is None


def build_gt_predicates(sample: VideoSample, assignment: dict[int, list[int]],
                        m: int) -> list[GtPredicate]:
    """GT predicate set of size m. Subject/object target rows carry a 1 for
    every tracklet assigned to the relation's GT subject/object."""
    n = len(sample.tracklets)
    if len(sample.gt_relations) > m:
        raise DataError(
            f"video {sample.video_id}: {len(sample.gt_relations)} GT relations exceed "
            f"the {m} predicate queries; increase the anchor grid (m_c*m_d)")
    position = {t.id: i for i, t in enumerate(sample.tracklets)}
    entries = []
    for rel in sample.gt_relations:
        target = np.zeros((2, n))
        for row, gt_id in ((0, rel.subject_gt_id), (1, rel.object_gt_id)):
            for tid in assignment.get(gt_id, ()):
                target[row, position[tid]] = 1.0
        entries.append(GtPredicate(predicate=rel.predicate, attention=target))
    background = GtPredicate(predicate=None, attention=np.zeros((2, n)))
    entries.extend([background] * (m - len(entries)))
    return entries


def cost_matrix(gt_set: list[GtPredicate], probs: np.ndarray, attn: np.ndarray,
                lambda_cls: float, lambda_att: float) -> np.ndarray:
    """(m, m) matching costs, rows = GT entries, columns = predictions."""
    m = len(gt_set)
    n = attn.shape[2]
    cost = np.zeros((m, m))
    live = [j for j, g in enumerate(gt_set) if not g.is_background]
    if not live:
        return cost
    logp = np.log(np.clip(probs, BCE_CLAMP, None))  # (m, R+1)
    a = np.clip(attn, BCE_CLAMP, 1.0 - BCE_CLAMP)
    la = np.log(a).transpose(1, 0, 2).reshape(m, 2 * n)
    l1a = np.log(1.0 - a).transpose(1, 0, 2).reshape(m, 2 * n)
    targets = np.stack([gt_set[j].attention.reshape(2 * n) for j in live])
    bce = -(targets @ la.T + (1.0 - targets) @ l1a.T) / (2 * n)  # (k, m)
    classes = np.array([gt_set[j].predicate for j in live])
    cls = -logp[:, classes].T  # (k, m)
    cost[live, :] = lambda_cls * cls + lambda_att * bce
    return cost


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost permutation sigma (GT row j -> prediction column sigma[j])."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise UsageError(f"hungarian needs a square cost matrix, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise NumericsError("hungarian needs finite costs")
    _, cols = linear_sum_assignment(cost)
    return cols


def total_loss(gt_set: list[GtPredicate], output: ModelOutput, sigma: np.ndarray,
               lambda_cls: float, lambda_att: float) -> Tensor:
    """Differentiable training loss for one video under assignment sigma."""
    n_rel = output.probs.shape[1] - 1
    n = output.attention.shape[2]
    lp = ad.log(ad.clip(output.probs, BCE_CLAMP, 1.0))

    live = [j for j, g in enumerate(gt_set) if not g.is_background]
    background = [j for j, g in enumerate(gt_set) if g.is_background]
    terms = []
    if live:
        cols = np.array([sigma[j] for j in live])
        classes = np.array([gt_set[j].predicate for j in live])
        terms.append(ad.mul(ad.tsum(lp[cols, classes]), -lambda_cls))

        selected = ad.clip(ad.take(output.attention, cols, axis=1),
                           BCE_CLAMP, 1.0 - BCE_CLAMP)
        targets = ad.constant(np.stack([gt_set[j].attention for j in live], axis=1))
        bce = ad.neg(targets * ad.log(selected)
                     + (1.0 - targets) * ad.log(1.0 - selected))
        terms.append(ad.mul(ad.tsum(bce), lambda_att / (2 * n)))
    if background:
        cols = np.array([sigma[j] for j in background])
        classes = np.full(len(background), n_rel)
        terms.append(ad.mul(ad.tsum(lp[cols, classes]), -lambda_cls))

    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    return loss


def video_loss(model: RelationModel, ctx: VideoContext, gt_set: list[GtPredicate],
               lambda_cls: float, lambda_att: float) -> tuple[Tensor, ModelOutput]:
    output = model.forward(ctx)
    cost = cost_matrix(gt_set, output.probs.data, output.attention.data,
                       lambda_cls, lambda_att)
    sigma = hungarian(cost)
    return total_loss(gt_set, output, sigma, lambda_cls, lambda_att), output


@dataclass
class TrainResult:
    checkpoint_path: str
    trace_path: str
    epoch_losses: list[float]


def train_loop(samples: list[VideoSample], model: RelationModel, train_cfg,
               out_dir: str, seed: int, viou_threshold: float = 0.5,
               log=None) -> TrainResult:
    """Adam training over batches of videos; deterministic for a fixed seed.

    Emits a per-step loss trace (CSV: epoch,step,loss), interval checkpoints
    when ``train_cfg.save_interval`` is set, and the final checkpoint.
    """
    from .checkpoint import save_checkpoint

    os.makedirs(out_dir, exist_ok=True)
    m = model.anchors.count
    model.store["tables.freq_bias"].data[:] = build_freq_bias(
        samples, len(model.vocab.objects), len(model.vocab.predicates))

    contexts, gt_sets = [], []
    for sample in samples:
        if not sample.tracklets:
            raise DataError(f"video {sample.video_id}: cannot train on a video "
                            "with no tracklets")
        assignment, _ = assign_tracklets_to_gt(sample, threshold=viou_threshold)
        contexts.append(model.build_context(sample))
        gt_sets.append(build_gt_predicates(sample, assignment, m))

    optimizer = Adam(lr=train_cfg.lr)
    shuffle_rng = np.random.default_rng([seed, 1])
    trace_path = os.path.join(out_dir, "loss_trace.csv")
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    model_meta = model.cfg.to_dict()

    epoch_losses = []
    batch = train_cfg.batch_size
    with open(trace_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "step", "loss"])
        step = 0
        for epoch in range(train_cfg.epochs):
            order = shuffle_rng.permutation(len(samples))
            losses = []
            for lo in range(0, len(order), batch):
                idx = order[lo:lo + batch]
                acc = None
                for i in idx:
                    loss, _ = video_loss(model, contexts[i], gt_sets[i],
                                         train_cfg.lambda_cls, train_cfg.lambda_att)
                    acc = loss if acc is None else acc + loss
                batch_loss = ad.mul(acc, 1.0 / len(idx))
                value = batch_loss.item()
                if not np.isfinite(value):
                    raise NumericsError(
                        f"non-finite loss at epoch {epoch} step {step}; aborting")
                grads = ad.backward(batch_loss, model.store.trainable_tensors())
                if train_cfg.max_grad_norm is not None:
                    _, grads = clip_grad_norm(grads, train_cfg.max_grad_norm)
                optimizer.step(model.store, grads)
                del grads  # not held through the next step's forward
                writer.writerow([epoch, step, repr(value)])
                losses.append(value)
                step += 1
            mean = float(np.mean(losses)) if losses else float("nan")
            epoch_losses.append(mean)
            if log is not None:
                log(f"epoch {epoch}: mean loss {mean:.6f}")
            if (train_cfg.save_interval and (epoch + 1) % train_cfg.save_interval == 0
                    and (epoch + 1) < train_cfg.epochs):
                save_checkpoint(os.path.join(out_dir, f"model_epoch{epoch + 1:04d}.ckpt"),
                                model.store, model_meta)
    save_checkpoint(ckpt_path, model.store, model_meta)
    return TrainResult(checkpoint_path=ckpt_path, trace_path=trace_path,
                       epoch_losses=epoch_losses)
