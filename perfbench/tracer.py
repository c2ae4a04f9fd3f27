"""Span tracing installed from outside the program, for the traced run only.

``install`` replaces each public function named in ``TIMED`` with a wrapper
that records a span (name, command, parent span, start, end) in memory. The
wrapper is patched into every ``relformer`` module namespace that holds the
original, so ``metrics.compute_viou`` is wrapped as well as
``data.compute_viou``, and methods are patched on their class.
``match_relation`` and ``compute_viou`` run thousands of times per video, so
their wrappers only count calls.

A span's self time is its duration minus the durations of its direct child
spans; the pipeline opens one root span per command, so self times over a
command add up to its wall time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

FORWARD = (
    "model.build_value_matrix", "model.cross_attend", "model.role_attention",
    "model.normalize_attention", "model.decode", "model.encode_tracklets",
    "nn.self_attention_block", "features.init_tracklet_feature",
    "features.pool_to_encoder_input", "head.classify_predicates",
)

# Which wrapped layers each command reaches; the per-layer metric list is
# built from this table, so every listed metric exists on every workload.
LAYERS_BY_COMMAND = {
    "setup": ("model.build_context", "data.assign_tracklets_to_gt",
              "dataset_io.load_dataset", "checkpoint.save_checkpoint"),
    "train": FORWARD + (
        "model.build_context", "training.cost_matrix", "training.hungarian",
        "training.total_loss", "autodiff.backward", "nn.Adam.step",
        "data.assign_tracklets_to_gt", "dataset_io.load_dataset",
        "checkpoint.save_checkpoint"),
    "eval": FORWARD + (
        "model.build_context", "head.infer_triplets", "metrics.reldet_scores",
        "metrics.reltag_scores", "metrics.tracklet_map", "dataset_io.load_dataset",
        "checkpoint.load_checkpoint"),
    "infer": FORWARD + (
        "model.build_context", "head.infer_triplets", "dataset_io.load_dataset",
        "checkpoint.load_checkpoint"),
}

COUNTERS = (
    ("train", "features.frames"), ("eval", "features.frames"),
    ("infer", "features.frames"), ("eval", "head.predictions"),
    ("infer", "head.predictions"), ("eval", "metrics.match_relation.calls"),
    ("eval", "data.compute_viou.calls"), ("train", "checkpoint.bytes"),
    ("eval", "checkpoint.bytes"),
)

# Layer name -> attribute path inside its module ("Class.method" for methods).
_ATTR = {"model.build_value_matrix": "RelationModel.build_value_matrix",
         "model.decode": "RelationModel.decode",
         "model.encode_tracklets": "RelationModel.encode_tracklets",
         "model.build_context": "RelationModel.build_context",
         "nn.Adam.step": "Adam.step"}

TIMED = tuple(sorted({layer for layers in LAYERS_BY_COMMAND.values() for layer in layers}))


def _path_bytes(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


# Layer name -> (counter name, amount(args, result)) recorded after each call.
_COUNT_ON_RETURN = {
    "features.init_tracklet_feature": ("features.frames", lambda a, r: a[1].shape[0]),
    "head.infer_triplets": ("head.predictions", lambda a, r: len(r)),
    "checkpoint.save_checkpoint": ("checkpoint.bytes", lambda a, r: _path_bytes(a[0])),
    "checkpoint.load_checkpoint": ("checkpoint.bytes", lambda a, r: _path_bytes(a[0])),
}


class Recorder:
    """In-memory spans plus per-command counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, command, parent, start, end]
        self.stack: list[int] = []
        self.command = ""
        self.counts: dict[tuple[str, str], int] = defaultdict(int)

    def open(self, name: str) -> list:
        span = [name, self.command, self.stack[-1] if self.stack else -1,
                time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[4] - s[3]
        return own

    def layer_totals(self) -> dict[tuple[str, str], list]:
        """(command, span name) -> [self seconds, calls]."""
        totals: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        for span, own in zip(self.spans, self.self_times()):
            entry = totals[(span[1], span[0])]
            entry[0] += own
            entry[1] += 1
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, command, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "command": command,
                                    "parent": parent, "start": start, "end": end}))
                f.write("\n")


def _timed(rec: Recorder, name: str, fn):
    count = _COUNT_ON_RETURN.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if count is not None:
            rec.counts[(rec.command, count[0])] += count[1](args, result)
        return result
    return wrapper


def _match_counter(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.counts[(rec.command, "metrics.match_relation.calls")] += 1
        if result:
            rec.counts[(rec.command, "metrics.match_relation.hits")] += 1
        return result
    return wrapper


def _viou_counter(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[(rec.command, "data.compute_viou.calls")] += 1
        return fn(*args, **kwargs)
    return wrapper


def _patch_everywhere(original, wrapper) -> int:
    """Rebind every relformer module global that is ``original``."""
    patched = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "relformer" or mod_name.startswith("relformer.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                patched += 1
    return patched


def install(rec: Recorder) -> None:
    """Wrap every layer in TIMED and the counted functions. Call it after every
    relformer module is imported, so that every imported name is rebound."""
    import importlib
    for layer in TIMED:
        module, _, short = layer.partition(".")
        mod = importlib.import_module(f"relformer.{module}")
        owner_name, _, attr = _ATTR.get(layer, short).rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            setattr(owner, attr, _timed(rec, layer, vars(owner)[attr]))
        else:
            original = getattr(mod, attr)
            if not _patch_everywhere(original, _timed(rec, layer, original)):
                raise RuntimeError(f"tracer: {layer} not found in any module")
    for module, attr, make in (("metrics", "match_relation", _match_counter),
                               ("data", "compute_viou", _viou_counter)):
        original = getattr(importlib.import_module(f"relformer.{module}"), attr)
        _patch_everywhere(original, make(rec, original))


def layer_metric_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in a fixed order."""
    names = []
    for command, layers in LAYERS_BY_COMMAND.items():
        for layer in layers:
            names += [f"{command}.{layer}.ms", f"{command}.{layer}.calls"]
        names.append(f"{command}.unwrapped.ms")
    names += [f"{command}.{counter}" for command, counter in COUNTERS]
    names += ["eval.metrics.match_relation.hit_ratio", "train.share.value_backward_adam",
              "eval.share.metrics", "forward.share.init_tracklet_feature",
              "trace.overhead.ms"]
    return names
