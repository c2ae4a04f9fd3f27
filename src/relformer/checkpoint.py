"""Checkpoint serialization.

A checkpoint is a single file: a one-line UTF-8 JSON manifest, a newline,
then one binary blob. The manifest is

    {"format": "relformer-ckpt/3", "model": <ModelConfig.to_dict()>,
     "vocab": {"objects": [...], "predicates": [...]}}

The model config and the vocab are the two facts that determine the tensor
layout, ``model.param_shapes(cfg, vocab)``, so the manifest lists no
tensors. The blob is those tensors' little-endian float32 (``"<f4"``) data,
row-major, concatenated in sorted-name order: the model's compute dtype, so
a save rounds nothing and a load widens nothing.

Loading accepts a checkpoint only for the run's own model config and vocab,
and only with exactly 4 bytes per parameter. It reads the blob once into
one array, and every loaded tensor is a frozen view into it. Format-1 files
(a per-tensor table and no vocab) and format-2 files (a float64 blob) are
rejected: retrain to get a format-3 file. Writes are atomic (temp file +
rename), and the file gets the mode a plain ``open`` would give it: 0o666
less the process umask.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .dataset_io import canonical_json
from .errors import CheckpointError
from .model import param_shapes
from .nn import ParamStore

FORMAT = "relformer-ckpt/3"
DTYPE = "<f4"
_RETIRED = ("relformer-ckpt/1", "relformer-ckpt/2")


def _manifest(cfg, vocab) -> dict:
    return {"format": FORMAT, "model": cfg.to_dict(),
            "vocab": {"objects": list(vocab.objects), "predicates": list(vocab.predicates)}}


def save_checkpoint(path: str, store: ParamStore, cfg, vocab) -> None:
    """Write ``store``, which holds the tensors of ``param_shapes(cfg, vocab)``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as f:
            # mkstemp creates the file as 0o600; give it the mode open would.
            # The umask can only be read by setting it; train saves on one thread.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(canonical_json(_manifest(cfg, vocab)).encode("utf-8"))
            for _, t in store.items():
                f.write(np.ascontiguousarray(t.data, dtype=DTYPE))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_section(path: str, section: str, got, want: dict) -> None:
    if not isinstance(got, dict):
        raise CheckpointError(f"{path}: checkpoint carries no {section} section")
    for key in sorted(want.keys() | got.keys()):
        if got.get(key) != want.get(key):
            raise CheckpointError(
                f"{path}: checkpoint was written for {section}.{key}={got.get(key)!r}, "
                f"but the run has {section}.{key}={want.get(key)!r}")


def load_checkpoint(path: str, cfg, vocab) -> ParamStore:
    """The frozen tensors of a checkpoint written for ``cfg`` and ``vocab``."""
    want = _manifest(cfg, vocab)
    shapes = param_shapes(cfg, vocab)
    sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}
    count = sum(sizes.values())
    try:
        with open(path, "rb") as f:
            header = f.readline()
            if not header.endswith(b"\n"):
                raise CheckpointError(f"{path}: missing manifest/blob separator")
            try:
                manifest = json.loads(header.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(f"{path}: malformed manifest: {exc}") from exc
            if not isinstance(manifest, dict):
                raise CheckpointError(f"{path}: malformed manifest: not an object")
            if manifest.get("format") in _RETIRED:
                raise CheckpointError(
                    f"{path}: format {manifest['format']!r} is no longer read; "
                    f"retrain to write a {FORMAT!r} checkpoint")
            if manifest.get("format") != FORMAT:
                raise CheckpointError(
                    f"{path}: format {manifest.get('format')!r}, expected {FORMAT!r}")
            for section in ("model", "vocab"):
                _check_section(path, section, manifest.get(section), want[section])
            blob_bytes = os.fstat(f.fileno()).st_size - len(header)
            if blob_bytes != 4 * count:
                raise CheckpointError(f"{path}: blob has {blob_bytes} bytes, but the "
                                      f"model's {count} float32 values take {4 * count}")
            blob = np.fromfile(f, dtype=DTYPE)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc

    store = ParamStore()
    offset = 0
    for name in sorted(shapes):
        store.add(name, blob[offset:offset + sizes[name]].reshape(shapes[name]),
                  trainable=False)
        offset += sizes[name]
    return store
