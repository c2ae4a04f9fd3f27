"""Set-matching training: ground-truth relation targets, matching cost,
Hungarian assignment, the total loss, and the optimization loop.

The k real GT relations of a video are matched to k of the m predictions;
nothing pads them to m. The matching cost of a (GT, prediction) pair
combines the negative predicate log-probability and a binary cross-entropy
on the normalized role attention (clamped into [1e-7, 1-1e-7], averaged over
the 2n entries). It is a constant (k, m) array that only the Hungarian step
reads; the loss is built from the assignment alone: the link BCE of the k
matched predictions, and the classification of all m predictions against
their matched GT predicate or no-relation.

A train step back-propagates each video's loss, scaled by 1/batch, straight
after its forward, carrying the batch's gradient sums from one video to the
next. So only one video's graph is alive at a time, and the gradients are
bit-identical to one backward of the batch's mean loss. Gradient clipping
and the Adam step take the gradient list over (see ``nn.Adam.step``), and
each gradient is freed once applied. The matching cost, the loss, each
gradient and each parameter after the Adam update must be finite, or the
step raises ``NumericsError`` naming the video or the tensor.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .data import VideoSample, all_finite, assign_tracklets_to_gt
from .errors import DataError, NumericsError
from .head import build_freq_bias
from .model import RelationModel, VideoContext
from .nn import Adam, clip_grad_norm

BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class GtTargets:
    """The k GT relations of one video as matching targets."""

    predicates: np.ndarray  # (k,) predicate ids
    links: np.ndarray  # (2, k, n) subject/object link targets in {0, 1}


def build_gt_predicates(sample: VideoSample, assignment: dict[int, list[int]],
                        m: int, dtype) -> GtTargets:
    """Targets of the video's GT relations, laid out like the (2, m, n) role
    attention, with links in ``dtype``, the model's. A subject/object link
    row carries a 1 for every tracklet assigned to the relation's GT
    subject/object."""
    n = len(sample.tracklets)
    k = len(sample.gt_relations)
    if k > m:
        raise DataError(
            f"video {sample.video_id}: {k} GT relations exceed "
            f"the {m} predicate queries; increase the anchor grid (m_c*m_d)")
    position = {t.id: i for i, t in enumerate(sample.tracklets)}
    links = np.zeros((2, k, n), dtype)
    for j, rel in enumerate(sample.gt_relations):
        for row, gt_id in ((0, rel.subject_gt_id), (1, rel.object_gt_id)):
            for tid in assignment.get(gt_id, ()):
                links[row, j, position[tid]] = 1.0
    predicates = np.array([rel.predicate for rel in sample.gt_relations], dtype=np.intp)
    return GtTargets(predicates=predicates, links=links)


def cost_matrix(gt: GtTargets, probs: np.ndarray, attention: np.ndarray,
                lambda_cls: float, lambda_att: float) -> np.ndarray:
    """(k, m) matching costs, rows = GT relations, columns = predictions, from
    the (m, R+1) ``probs`` and the (2, m, n) role ``attention``, in the
    attention's dtype. A constant: ``total_loss`` builds the graph."""
    _, m, n = attention.shape
    a = np.clip(attention.transpose(1, 0, 2).reshape(m, 2 * n).T, BCE_CLAMP, 1.0 - BCE_CLAMP)
    targets = gt.links.transpose(1, 0, 2).reshape(-1, 2 * n)  # (k, 2n)
    bce = -(targets @ np.log(a) + (1.0 - targets) @ np.log(1.0 - a))
    cls = np.log(np.clip(probs, BCE_CLAMP, 1.0))[:, gt.predicates].T
    return cls * -lambda_cls + bce / (2 * n) * lambda_att


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of the k <= m rows to distinct columns:
    GT row j -> prediction column sigma[j]. ``build_gt_predicates`` keeps k
    at most m."""
    cost = np.asarray(cost, dtype=np.float64)
    if not all_finite(cost):
        raise NumericsError("hungarian needs finite costs")
    _, cols = linear_sum_assignment(cost)
    return cols


def total_loss(gt: GtTargets, probs: Tensor, attention: Tensor, sigma: np.ndarray,
               lambda_cls: float, lambda_att: float) -> Tensor:
    """Loss of one video under the assignment sigma: the link BCE of the k matched
    predictions plus the classification of all m (no-relation if unmatched)."""
    _, m, n = attention.shape
    a = ad.clip(attention[:, sigma, :], BCE_CLAMP, 1.0 - BCE_CLAMP)  # (2, k, n)
    bce = ad.tsum(ad.mul(gt.links, ad.log(a))) + ad.tsum(ad.mul(1.0 - gt.links, ad.log(1.0 - a)))
    targets = np.full(m, probs.shape[1] - 1)  # no-relation
    targets[sigma] = gt.predicates
    p = ad.clip(probs[np.arange(m), targets], BCE_CLAMP, 1.0)
    cls = ad.mul(ad.tsum(ad.log(p)), -lambda_cls)
    return ad.mul(ad.div(ad.neg(bce), 2 * n), lambda_att) + cls


def video_loss(model: RelationModel, ctx: VideoContext, gt: GtTargets,
               lambda_cls: float, lambda_att: float) -> Tensor:
    """Forward, Hungarian matching on the constant cost, then the set loss."""
    out = model.forward(ctx)
    cost = cost_matrix(gt, out.probs.data, out.attention.data, lambda_cls, lambda_att)
    return total_loss(gt, out.probs, out.attention, hungarian(cost), lambda_cls, lambda_att)


def _require_finite(names: list[str], arrays: list[np.ndarray], what: str,
                    epoch: int, step: int) -> None:
    """NumericsError naming the first of ``arrays`` with a NaN or infinity."""
    for name, a in zip(names, arrays):
        if not all_finite(a):
            raise NumericsError(f"non-finite {what} {name} at epoch {epoch} "
                                f"step {step}; aborting")


@dataclass
class TrainResult:
    checkpoint_path: str
    trace_path: str
    epoch_losses: list[float]


def train_loop(samples: list[VideoSample], model: RelationModel, train_cfg,
               out_dir: str, seed: int, viou_threshold: float, log=None) -> TrainResult:
    """Adam training over batches of videos; deterministic for a fixed seed.

    Emits a per-step loss trace (CSV: epoch,step,loss), interval checkpoints
    when ``train_cfg.save_interval`` is set, and the final checkpoint. A
    step's loss is the mean of its videos' losses, summed in batch order.
    Tracklets join a GT object at vIoU >= ``viou_threshold``, the run
    config's ``eval.viou_threshold``, which evaluation matches with too.
    """
    m = len(model.anchors)
    model.store["tables.freq_bias"].data[:] = build_freq_bias(
        samples, len(model.vocab.objects), len(model.vocab.predicates))

    contexts, targets = [], []
    for sample in samples:
        assignment = assign_tracklets_to_gt(sample, threshold=viou_threshold)
        contexts.append(model.build_context(sample))
        targets.append(build_gt_predicates(sample, assignment, m, model.store.dtype))
    # Only once the data has passed its checks, so a rejected run leaves no --out.
    os.makedirs(out_dir, exist_ok=True)

    optimizer = Adam(lr=train_cfg.lr)
    shuffle_rng = np.random.default_rng([seed, 1])
    trace_path = os.path.join(out_dir, "loss_trace.csv")
    ckpt_path = os.path.join(out_dir, "model.ckpt")

    names = [name for name, _ in model.store.trainable_items()]
    params = model.store.trainable_tensors()
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
                scale = 1.0 / len(idx)
                total = grads = None
                for i in idx:
                    where = f"at epoch {epoch} step {step} video {samples[i].video_id}"
                    try:
                        loss = video_loss(model, contexts[i], targets[i],
                                          train_cfg.lambda_cls, train_cfg.lambda_att)
                    except NumericsError as exc:  # a non-finite matching cost
                        raise NumericsError(f"{exc} {where}; aborting") from exc
                    value = loss.item()
                    if not np.isfinite(value):
                        raise NumericsError(f"non-finite loss {where}; aborting")
                    total = value if total is None else total + value
                    # Back-propagating now frees this video's graph before the
                    # next forward; the carried sums keep the batch's gradient
                    # bit-identical to one backward of the mean loss.
                    grads = ad.backward(ad.mul(loss, scale), params, grads)
                value = total * scale
                _require_finite(names, grads, "gradient", epoch, step)
                if train_cfg.max_grad_norm is not None:
                    _, grads = clip_grad_norm(grads, train_cfg.max_grad_norm)
                optimizer.step(model.store, grads)  # empties grads
                _require_finite(names, [t.data for t in params], "parameter", epoch, step)
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
                                model.store, model.cfg, model.vocab)
    save_checkpoint(ckpt_path, model.store, model.cfg, model.vocab)
    return TrainResult(checkpoint_path=ckpt_path, trace_path=trace_path,
                       epoch_losses=epoch_losses)
