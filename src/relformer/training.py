"""Set-matching training: ground-truth relation targets, matching cost,
Hungarian assignment, the total loss, and the optimization loop.

The k real GT relations of a video are matched to k of the m predictions;
nothing pads them to m. The matching cost of a (GT, prediction) pair
combines the negative predicate log-probability and a binary cross-entropy
on the normalized role attention (clamped into [1e-7, 1-1e-7], averaged over
the 2n entries). It is built once, as a (k, m) autodiff tensor: the
Hungarian step reads its values, and the loss sums its matched entries plus
the no-relation classification of the m - k unmatched predictions. The
assignment itself is treated as a constant.

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


def cost_matrix(gt: GtTargets, log_probs: Tensor, attention: Tensor,
                lambda_cls: float, lambda_att: float) -> Tensor:
    """(k, m) matching costs, rows = GT relations, columns = predictions.

    ``log_probs`` is the (m, R+1) clamped log-probability, ``attention`` the
    (2, m, n) normalized role attention.
    """
    _, m, n = attention.shape
    columns = ad.transpose(ad.reshape(ad.transpose(attention, (1, 0, 2)), (m, 2 * n)))
    a = ad.clip(columns, BCE_CLAMP, 1.0 - BCE_CLAMP)  # (2n, m)
    targets = gt.links.transpose(1, 0, 2).reshape(-1, 2 * n)  # (k, 2n)
    bce = ad.neg(ad.matmul(targets, ad.log(a)) + ad.matmul(1.0 - targets, ad.log(1.0 - a)))
    cls = ad.transpose(log_probs[:, gt.predicates])
    return ad.mul(cls, -lambda_cls) + ad.mul(ad.div(bce, 2 * n), lambda_att)


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of the k <= m rows to distinct columns:
    GT row j -> prediction column sigma[j]. ``build_gt_predicates`` keeps k
    at most m."""
    cost = np.asarray(cost, dtype=np.float64)
    if not all_finite(cost):
        raise NumericsError("hungarian needs finite costs")
    _, cols = linear_sum_assignment(cost)
    return cols


def total_loss(cost: Tensor, log_probs: Tensor, sigma: np.ndarray,
               lambda_cls: float) -> Tensor:
    """Training loss of one video under the assignment sigma: the matched
    costs plus the no-relation classification of every unmatched prediction."""
    k, m = cost.shape
    unmatched = np.setdiff1d(np.arange(m), sigma)
    no_relation = log_probs.shape[1] - 1
    background = ad.mul(ad.tsum(log_probs[unmatched, no_relation]), -lambda_cls)
    return ad.tsum(cost[np.arange(k), sigma]) + background


def video_loss(model: RelationModel, ctx: VideoContext, gt: GtTargets,
               lambda_cls: float, lambda_att: float) -> Tensor:
    output = model.forward(ctx)
    log_probs = ad.log(ad.clip(output.probs, BCE_CLAMP, 1.0))
    cost = cost_matrix(gt, log_probs, output.attention, lambda_cls, lambda_att)
    return total_loss(cost, log_probs, hungarian(cost.data), lambda_cls)


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
               out_dir: str, seed: int, viou_threshold: float = 0.5,
               log=None) -> TrainResult:
    """Adam training over batches of videos; deterministic for a fixed seed.

    Emits a per-step loss trace (CSV: epoch,step,loss), interval checkpoints
    when ``train_cfg.save_interval`` is set, and the final checkpoint. A
    step's loss is the mean of its videos' losses, summed in batch order.
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
