"""Checkpoint serialization.

A checkpoint is a single file: a one-line UTF-8 JSON manifest, a newline,
then one binary blob. The manifest carries ``format`` ("relformer-ckpt/1"),
an optional ``model`` config echo, and a ``tensors`` list of
``{name, shape, dtype, byte_offset}`` entries; the blob is the tensors'
little-endian float64 (``"<f8"``, the only dtype) data, row-major,
concatenated in manifest order. Loading reads the blob once into one array,
and every loaded tensor is a writable view into it.
Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import CheckpointError
from .nn import ParamStore

FORMAT = "relformer-ckpt/1"
DTYPE = "<f8"


def save_checkpoint(path: str, store: ParamStore, model_meta: dict | None = None) -> None:
    tensors = []
    blobs = []
    offset = 0
    for name, t in store.items():
        arr = np.ascontiguousarray(t.data, dtype=DTYPE)
        tensors.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": DTYPE,
            "byte_offset": offset,
            "trainable": store.is_trainable(name),
        })
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    manifest = {"format": FORMAT, "tensors": tensors}
    if model_meta is not None:
        manifest["model"] = model_meta
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(header)
            f.write(b"\n")
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> tuple[ParamStore, dict]:
    """Read a checkpoint; returns (store, manifest)."""
    try:
        with open(path, "rb") as f:
            header = f.readline()
            if not header.endswith(b"\n"):
                raise CheckpointError(f"{path}: missing manifest/blob separator")
            try:
                manifest = json.loads(header.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(f"{path}: malformed manifest: {exc}") from exc
            if not isinstance(manifest, dict) or not isinstance(
                    manifest.get("tensors", []), list):
                raise CheckpointError(
                    f"{path}: malformed manifest: not an object with a tensors list")
            if manifest.get("format") != FORMAT:
                raise CheckpointError(
                    f"{path}: format {manifest.get('format')!r}, expected {FORMAT!r}")
            blob = np.fromfile(f, dtype=DTYPE)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc

    store = ParamStore()
    for entry in manifest.get("tensors", []):
        try:
            name = entry["name"]
            shape = tuple(entry["shape"])
            dtype = entry["dtype"]
            offset = entry["byte_offset"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: bad tensor entry {entry!r}") from exc
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: bad tensor name {name!r}")
        if name in store:
            raise CheckpointError(f"{path}: {name}: listed twice")
        if any(not isinstance(n, int) or n < 0 for n in shape):
            raise CheckpointError(f"{path}: {name}: bad shape {list(shape)!r}")
        if dtype != DTYPE:
            raise CheckpointError(f"{path}: {name}: unsupported dtype {dtype!r}")
        if not isinstance(offset, int) or offset < 0 or offset % 8:
            raise CheckpointError(f"{path}: {name}: misaligned byte_offset {offset!r}")
        start = offset // 8
        end = start + (int(np.prod(shape, dtype=np.int64)) if shape else 1)
        if end > len(blob):
            raise CheckpointError(f"{path}: {name}: blob truncated")
        store.add(name, blob[start:end].reshape(shape),
                  trainable=entry.get("trainable", True))
    return store, manifest


def check_compatible(path: str, store: ParamStore,
                     want: dict[str, tuple[int, ...]]) -> None:
    """Raise if ``store`` does not carry exactly the name -> shape map ``want``."""
    got = {n: t.data.shape for n, t in store.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        mismatched = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        detail = []
        if missing:
            detail.append(f"missing {missing[:3]}")
        if extra:
            detail.append(f"unexpected {extra[:3]}")
        if mismatched:
            detail.append(
                "shape mismatch " +
                ", ".join(f"{n}: {got[n]} != {want[n]}" for n in mismatched[:3]))
        raise CheckpointError(f"{path}: incompatible with model config ({'; '.join(detail)})")
