"""Checkpoint serialization.

A checkpoint is a single file: a one-line UTF-8 JSON manifest, padded with
spaces, a newline, then one binary blob. The manifest is

    {"format": "relformer-ckpt/4", "model": <ModelConfig.to_dict()>,
     "vocab": {"objects": [...], "predicates": [...]}}

The model config and the vocab are the two facts that determine the tensor
layout, ``model.param_shapes(cfg, vocab)``, so the manifest lists no
tensors. The blob is those tensors' little-endian float32 (``"<f4"``) data,
row-major, concatenated in sorted-name order: the model's compute dtype, so
a save rounds nothing and a load widens nothing.

The spaces after the manifest's closing brace make the first line,
newline included, a multiple of ``ALIGN`` (64) bytes long, so the blob
starts on a 64-byte boundary of the file. Loading maps the file read-only
and every loaded tensor is a read-only view into that mapping; the page
alignment of the mapping then makes every view aligned, so numpy runs the
same loops on it as on a copied array, and the forward pass gives the same
bits. The mapping lives as long as any loaded tensor does. A checkpoint
must therefore never be rewritten in place while a process reads it: a
shorter file would fault on the pages past its end. The package only
replaces a checkpoint by renaming a new file over it, which leaves an
open mapping on the old file.

Loading accepts a checkpoint only for the run's own model config and vocab,
with its blob on a 64-byte boundary and exactly 4 bytes per parameter; all
of that is checked before the file is mapped. Format-1 files (a per-tensor
table and no vocab), format-2 files (a float64 blob) and format-3 files (an
unpadded manifest) are rejected: retrain to get a format-4 file. Writes are
atomic (temp file + rename), and the file gets the mode a plain ``open``
would give it: 0o666 less the process umask.
"""

from __future__ import annotations

import json
import mmap
import os
import tempfile

import numpy as np

from .dataset_io import canonical_json
from .errors import CheckpointError
from .model import param_shapes
from .nn import ParamStore

FORMAT = "relformer-ckpt/4"
DTYPE = "<f4"
ALIGN = 64
_RETIRED = ("relformer-ckpt/1", "relformer-ckpt/2", "relformer-ckpt/3")


def _manifest(cfg, vocab) -> dict:
    return {"format": FORMAT, "model": cfg.to_dict(),
            "vocab": {"objects": list(vocab.objects), "predicates": list(vocab.predicates)}}


def _header(cfg, vocab) -> bytes:
    """The manifest line, newline included, padded to a multiple of ALIGN bytes."""
    line = canonical_json(_manifest(cfg, vocab)).encode("utf-8")  # ends in "\n"
    return line[:-1] + b" " * (-len(line) % ALIGN) + b"\n"


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
            f.write(_header(cfg, vocab))
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
    """The frozen tensors of a checkpoint written for ``cfg`` and ``vocab``.

    Every tensor is a read-only view into one read-only mapping of the file,
    which stays mapped while any of them is alive; nothing is copied. The
    manifest, the blob's alignment and its size are all checked before the
    file is mapped.
    """
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
            if len(header) % ALIGN:
                raise CheckpointError(f"{path}: manifest line is {len(header)} bytes, so the "
                                      f"blob does not start on a {ALIGN}-byte boundary")
            blob_bytes = os.fstat(f.fileno()).st_size - len(header)
            if blob_bytes != 4 * count:
                raise CheckpointError(f"{path}: blob has {blob_bytes} bytes, but the "
                                      f"model's {count} float32 values take {4 * count}")
            mapped = mmap.mmap(f.fileno(), len(header) + blob_bytes, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc

    blob = np.frombuffer(mapped, dtype=DTYPE, count=count, offset=len(header))
    store = ParamStore()
    offset = 0
    for name in sorted(shapes):
        store.add(name, blob[offset:offset + sizes[name]].reshape(shapes[name]),
                  trainable=False)
        offset += sizes[name]
    return store
