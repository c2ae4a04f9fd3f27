"""Batch command line: ``synth``, ``train``, ``eval``, ``infer``.

Every command takes an optional JSON config file (flags override file values,
file values override defaults) and produces byte-identical outputs for
identical flags, seed, and inputs. Exit codes: 0 success, 2 config/usage
error, 3 data or checkpoint incompatibility, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .checkpoint import load_checkpoint
from .config import RunConfig, load_config
from .data import Vocab
from .dataset_io import canonical_json, load_dataset, save_dataset
from .errors import (CheckpointError, ConfigError, DataError, NumericsError,
                     RelformerError, UsageError)
from .head import infer_triplets, load_embedding_table, triplets_to_json
from .metrics import evaluate
from .model import RelationModel, init_store
from .synth import synth_generate
from .training import train_loop


def _threads(value: int | None) -> int:
    if value is None:
        return 1
    if value < 1:
        raise UsageError(f"--threads: must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relformer",
        description="Tracklet-transformer video relation detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="global seed override")

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    p.add_argument("--videos", type=int)
    p.add_argument("--frames", type=int, dest="frame_count")
    p.add_argument("--objects-min", type=int, dest="objects_min")
    p.add_argument("--objects-max", type=int, dest="objects_max")
    p.add_argument("--objects", type=int,
                   help="shorthand: set objects-min and objects-max together")
    p.add_argument("--distractors", type=int)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory for checkpoint/trace")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--save-interval", type=int, dest="save_interval")
    p.add_argument("--embeddings", help="TRKF file with a category embedding table")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate checkpoint(s) on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True,
                   help="checkpoint path, or comma-separated list to ensemble")
    p.add_argument("--out", help="write the report JSON here (default: stdout)")
    p.add_argument("--per-video", dest="per_video", help="also write a per-video CSV")
    p.add_argument("--threads", type=int)

    p = sub.add_parser("infer", help="write per-video prediction JSON files")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int)
    return parser


def _load_model(ckpt_path: str, cfg: RunConfig, vocab: Vocab) -> RelationModel:
    """The checkpoint's model, frozen: its forwards record no autodiff graph."""
    return RelationModel(cfg.model, vocab, load_checkpoint(ckpt_path, cfg.model, vocab))


def _predict_all(models, samples, top_k: int, threads: int):
    """predictions[video_id]: every model's queries ranked together by
    ``infer_triplets``, so a key keeps its best score over all the models."""

    def one(sample):
        if not sample.tracklets:
            return []
        outs = [m.forward(m.build_context(sample)) for m in models]
        probs = np.concatenate([out.probs.data for out in outs])
        links = np.concatenate([out.links for out in outs])
        return infer_triplets(probs, links, list(sample.tracklets), top_k)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            merged = list(pool.map(one, samples))
    else:
        merged = [one(s) for s in samples]
    return {s.video_id: preds for s, preds in zip(samples, merged)}


def cmd_synth(args) -> int:
    extra = {}
    if args.objects is not None:
        extra["synth.objects_min"] = args.objects
        extra["synth.objects_max"] = args.objects
    cfg = load_config(args.config, _collect_overrides(args, {
        "videos": "synth.videos", "frame_count": "synth.frame_count",
        "objects_min": "synth.objects_min", "objects_max": "synth.objects_max",
        "distractors": "synth.distractors"}, extra=extra))
    out = args.out
    if os.path.isdir(out) and any(not p.startswith(".") for p in os.listdir(out)) \
            and not args.force:
        raise UsageError(f"{out}: output directory not empty (pass --force)")
    samples, vocab = synth_generate(cfg.synth, cfg.seed)
    save_dataset(out, samples, vocab, force=True)
    print(f"wrote {len(samples)} videos to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, _collect_overrides(args, {
        "epochs": "train.epochs", "lr": "train.lr", "batch_size": "train.batch_size",
        "save_interval": "train.save_interval"}))
    samples, vocab = load_dataset(args.data)
    if not samples:
        raise DataError(f"{args.data}: dataset has no videos to train on")
    embeddings = None
    if args.embeddings:
        embeddings = load_embedding_table(args.embeddings, len(vocab.objects),
                                          cfg.model.d_w)
    model = RelationModel(cfg.model, vocab,
                          init_store(cfg.model, vocab, cfg.train_seed, embeddings))
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    result = train_loop(samples, model, cfg.train, args.out, seed=cfg.train_seed,
                        viou_threshold=cfg.eval.viou_threshold, log=log)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss trace: {result.trace_path}")
    return 0


def cmd_eval(args) -> int:
    threads = _threads(args.threads)
    cfg = load_config(args.config, _collect_overrides(args, {}))
    samples, vocab = load_dataset(args.data)
    paths = [p for p in args.ckpt.split(",") if p]
    if not paths:
        raise UsageError("--ckpt: no checkpoint paths given")
    models = [_load_model(p, cfg, vocab) for p in paths]
    predictions = _predict_all(models, samples, cfg.eval.top_k_per_query, threads)
    report = evaluate(predictions, samples, cfg.eval.viou_threshold,
                      cfg.eval.recall_ks, cfg.eval.precision_ks)
    payload = canonical_json(report.to_dict())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)
    if args.per_video:
        _write_per_video_csv(args.per_video, report)
    return 0


def _write_per_video_csv(path: str, report) -> None:
    keys = sorted({k for entry in report.per_video.values() for k in entry})
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["video_id"] + keys)
        for vid in sorted(report.per_video):
            entry = report.per_video[vid]
            writer.writerow([vid] + [repr(entry[k]) if k in entry else ""
                                     for k in keys])


def cmd_infer(args) -> int:
    threads = _threads(args.threads)
    cfg = load_config(args.config, _collect_overrides(args, {}))
    samples, vocab = load_dataset(args.data)
    model = _load_model(args.ckpt, cfg, vocab)
    predictions = _predict_all([model], samples, cfg.eval.top_k_per_query, threads)
    os.makedirs(args.out, exist_ok=True)
    for sample in samples:
        doc = triplets_to_json(sample.video_id, predictions[sample.video_id])
        path = os.path.join(args.out, f"predictions_{sample.video_id}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(canonical_json(doc))
    print(f"wrote predictions for {len(samples)} videos to {args.out}")
    return 0


def _collect_overrides(args, mapping: dict[str, str], extra: dict | None = None) -> dict:
    overrides = dict(extra or {})
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    return overrides


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
             "infer": cmd_infer}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RelformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
