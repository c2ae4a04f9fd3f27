"""Batch command line: ``synth``, ``train``, ``eval``, ``infer``.

Every command takes an optional JSON config file (flags override file values,
file values override defaults) and produces byte-identical outputs for
identical flags, seed, and inputs. Exit codes: 0 success, 2 config/usage
error, 3 data or checkpoint incompatibility, 4 numerical abort.

``main`` runs numpy's OpenBLAS on one thread before it does anything else:
a product split over BLAS threads can round differently, so otherwise the
bytes would depend on ``OPENBLAS_NUM_THREADS`` and the core count.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
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


# OpenBLAS's thread-count setter under its plain, 64-bit-integer and
# scipy-openblas (numpy's wheels) symbol names.
_BLAS_SETTERS = tuple(f"{prefix}_set_num_threads{suffix}"
                      for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_"))


def _pin_blas_threads() -> None:
    """Run numpy's OpenBLAS on one thread; a no-op under any other BLAS.

    The setter is looked up through numpy's linear-algebra extension: a
    symbol lookup on a library handle also searches the libraries it links,
    and that extension links the BLAS numpy loaded.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in _BLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter(1)
            return


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise UsageError(f"--threads: must be at least 1, got {threads}")


def _check_out_dir(flag: str, path: str) -> None:
    """UsageError unless ``path`` is a directory or can be made one: the
    nearest existing path at or above it must be a directory. Creates
    nothing, so a run rejected later leaves no output behind."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise UsageError(f"{flag} {path}: {probe} is not a directory")


def _check_out_file(flag: str, path: str | None) -> None:
    """UsageError unless a file can be written at ``path``, when one is given:
    its directory must exist, and ``path`` must not be a directory."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"{flag} {path}: directory {parent} does not exist")
    if os.path.isdir(path):
        raise UsageError(f"{flag} {path}: is a directory")


def _build_parser() -> argparse.ArgumentParser:
    """A flag that overrides a config value has that value's key as its dest:
    ``seed`` or ``section.field`` (see ``_config_overrides``)."""
    parser = argparse.ArgumentParser(
        prog="relformer",
        description="Tracklet-transformer video relation detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int,
                       help="the one seed of synth and train (overrides the config's seed)")

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    p.add_argument("--videos", type=int, dest="synth.videos")
    p.add_argument("--frames", type=int, dest="synth.frame_count")
    p.add_argument("--objects-min", type=int, dest="synth.objects_min")
    p.add_argument("--objects-max", type=int, dest="synth.objects_max")
    p.add_argument("--distractors", type=int, dest="synth.distractors")

    p = sub.add_parser("train", help="train a model on a dataset directory")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory for checkpoint/trace")
    p.add_argument("--epochs", type=int, dest="train.epochs")
    p.add_argument("--lr", type=float, dest="train.lr")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.add_argument("--save-interval", type=int, dest="train.save_interval")
    p.add_argument("--embeddings", help="TRKF file with a category embedding table")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate checkpoint(s) on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True,
                   help="checkpoint path, or comma-separated list to ensemble")
    p.add_argument("--out", help="write the report JSON here (default: stdout)")
    p.add_argument("--per-video", dest="per_video", help="also write a per-video CSV")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("infer", help="write per-video prediction JSON files")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1)
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

    # --threads 1 runs on the calling thread: a worker thread allocates from
    # its own glibc malloc arena and cannot reuse memory the caller freed, so
    # a one-worker pool raised peak RSS by 12-14% on the long_tracks benchmark.
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            merged = list(pool.map(one, samples))
    else:
        merged = [one(s) for s in samples]
    return {s.video_id: preds for s, preds in zip(samples, merged)}


def cmd_synth(args, cfg: RunConfig) -> int:
    out = args.out
    _check_out_dir("--out", out)
    if os.path.isdir(out) and any(not p.startswith(".") for p in os.listdir(out)) \
            and not args.force:
        raise UsageError(f"{out}: output directory not empty (pass --force)")
    samples, vocab = synth_generate(cfg.synth, cfg.seed)
    save_dataset(out, samples, vocab, force=True)
    print(f"wrote {len(samples)} videos to {out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    _check_out_dir("--out", args.out)  # train_loop creates it after the data checks
    samples, vocab = load_dataset(args.data)
    if not samples:
        raise DataError(f"{args.data}: dataset has no videos to train on")
    embeddings = None
    if args.embeddings:
        embeddings = load_embedding_table(args.embeddings, len(vocab.objects),
                                          cfg.model.d_w)
    model = RelationModel(cfg.model, vocab,
                          init_store(cfg.model, vocab, cfg.seed, embeddings))
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    result = train_loop(samples, model, cfg.train, args.out, seed=cfg.seed,
                        viou_threshold=cfg.eval.viou_threshold, log=log)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss trace: {result.trace_path}")
    return 0


def cmd_eval(args, cfg: RunConfig) -> int:
    _check_threads(args.threads)
    _check_out_file("--out", args.out)
    _check_out_file("--per-video", args.per_video)
    samples, vocab = load_dataset(args.data)
    paths = [p for p in args.ckpt.split(",") if p]
    if not paths:
        raise UsageError("--ckpt: no checkpoint paths given")
    models = [_load_model(p, cfg, vocab) for p in paths]
    predictions = _predict_all(models, samples, cfg.eval.top_k_per_query, args.threads)
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


def cmd_infer(args, cfg: RunConfig) -> int:
    _check_threads(args.threads)
    _check_out_dir("--out", args.out)
    samples, vocab = load_dataset(args.data)
    model = _load_model(args.ckpt, cfg, vocab)
    predictions = _predict_all([model], samples, cfg.eval.top_k_per_query, args.threads)
    os.makedirs(args.out, exist_ok=True)
    # An earlier run's files would read as predictions for videos this
    # dataset may not have; any other file is left alone.
    for name in os.listdir(args.out):
        if name.startswith("predictions_") and name.endswith(".json"):
            os.remove(os.path.join(args.out, name))
    for sample in samples:
        doc = triplets_to_json(sample.video_id, predictions[sample.video_id])
        path = os.path.join(args.out, f"predictions_{sample.video_id}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(canonical_json(doc))
    print(f"wrote predictions for {len(samples)} videos to {args.out}")
    return 0


def _config_overrides(args) -> dict:
    """The flags that name a config key as their dest; ``load_config`` skips
    the ones not given (None)."""
    return {key: value for key, value in vars(args).items() if key == "seed" or "." in key}


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
             "infer": cmd_infer}


def main(argv: list[str] | None = None) -> int:
    _pin_blas_threads()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, load_config(args.config, _config_overrides(args)))
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
