import dataclasses
import json
import mmap
import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relformer import checkpoint
from relformer.checkpoint import ALIGN, FORMAT, load_checkpoint, save_checkpoint
from relformer.config import ModelConfig
from relformer.data import Vocab
from relformer.dataset_io import canonical_json
from relformer.errors import CheckpointError
from relformer.model import RelationModel, init_store, param_shapes
from relformer.nn import ParamStore

CFG = ModelConfig(d=4, d_q=4, d_v=4, d_a=2, d_w=2, l=1, l_roi=1, L_e=1, L_d=1,
                  m_c=1, m_d=1, heads=1, mlp_hidden=2)
VOCAB = Vocab(objects=("a", "b"), predicates=("p", "q"))


@pytest.fixture
def ckpt(tmp_path):
    """A saved checkpoint of a tiny model and the store it was saved from."""
    store = init_store(CFG, VOCAB, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), store, CFG, VOCAB)
    return path, store


def rewrite_manifest(path, edit):
    """Replace the manifest by ``edit(manifest)``, unpadded, keeping the blob
    as it is."""
    header, _, blob = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + blob)


def copied_store(path, cfg, vocab) -> ParamStore:
    """The frozen store of a checkpoint read the way format 3 was: one
    ``np.fromfile`` copy of the blob, sliced into views."""
    shapes = param_shapes(cfg, vocab)
    with open(path, "rb") as f:
        f.readline()
        blob = np.fromfile(f, dtype="<f4")
    store, offset = ParamStore(), 0
    for name in sorted(shapes):
        size = int(np.prod(shapes[name]))
        store.add(name, blob[offset:offset + size].reshape(shapes[name]), trainable=False)
        offset += size
    return store


@pytest.fixture
def mmap_calls(monkeypatch):
    """The lengths of the mappings ``load_checkpoint`` makes."""
    calls = []

    def spy(fileno, length, access):
        calls.append(length)
        return mmap.mmap(fileno, length, access=access)

    monkeypatch.setattr(checkpoint, "mmap",
                        types.SimpleNamespace(mmap=spy, ACCESS_READ=mmap.ACCESS_READ))
    return calls


@st.composite
def small_configs(draw):
    """Small model configs over ``toy_dataset``'s feature width; odd widths
    put tensors at offsets that are not multiples of 16 bytes."""
    heads = draw(st.sampled_from([1, 2]))
    return ModelConfig(
        d=2 * heads * draw(st.integers(1, 3)), d_q=heads * draw(st.integers(1, 4)),
        d_v=draw(st.integers(1, 7)), d_a=16, d_w=draw(st.integers(1, 5)),
        l=draw(st.integers(1, 4)), l_roi=draw(st.integers(1, 4)),
        L_e=draw(st.integers(1, 2)), L_d=draw(st.integers(1, 2)),
        m_c=draw(st.integers(1, 4)), m_d=draw(st.integers(1, 3)), heads=heads,
        mlp_hidden=draw(st.integers(1, 7)))


class TestRoundTrip:
    def test_values_and_flags_survive(self, ckpt):
        path, store = ckpt
        loaded = load_checkpoint(str(path), CFG, VOCAB)
        assert loaded.names() == store.names()
        for name, t in store.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
            assert not loaded[name].requires_grad

    def test_manifest_is_json_line_with_model_and_vocab(self, ckpt):
        path, _ = ckpt
        header, _, blob = path.read_bytes().partition(b"\n")
        assert json.loads(header) == {
            "format": FORMAT, "model": dataclasses.asdict(CFG),
            "vocab": {"objects": ["a", "b"], "predicates": ["p", "q"]}}
        count = sum(int(np.prod(s)) for s in param_shapes(CFG, VOCAB).values())
        assert len(blob) == 4 * count

    def test_blob_is_little_endian_rowmajor(self, ckpt):
        """The float32 tensors in sorted-name order, each row-major."""
        path, store = ckpt
        assert store.dtype == np.float32
        blob = path.read_bytes().partition(b"\n")[2]
        want = np.concatenate([t.data.ravel() for _, t in store.items()])
        assert blob == want.astype("<f4").tobytes()

    def test_loaded_tensors_are_float32(self, ckpt):
        path, _ = ckpt
        loaded = load_checkpoint(str(path), CFG, VOCAB)
        assert loaded.dtype == np.float32

    def test_loaded_tensors_are_read_only_views_of_one_mapping(self, ckpt):
        """Every tensor views one array over a read-only mapping of the file:
        aligned, and a write raises instead of reaching the file."""
        path, store = ckpt
        loaded = load_checkpoint(str(path), CFG, VOCAB)
        first = store.names()[0]
        blob = loaded[first].data.base
        assert blob is not None and blob.size == sum(t.data.size for _, t in store.items())
        assert isinstance(blob.base.obj, mmap.mmap)
        assert blob.ctypes.data % ALIGN == 0
        for _, t in loaded.items():
            assert t.data.base is blob and not t.requires_grad
            assert t.data.flags.aligned and not t.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t.data.flat[0] = 123.0

    def test_a_valid_file_is_mapped_once_over_its_whole_length(self, ckpt, mmap_calls):
        path, _ = ckpt
        load_checkpoint(str(path), CFG, VOCAB)
        assert mmap_calls == [path.stat().st_size]

    def test_loaded_tensors_outlive_a_replaced_or_deleted_file(self, ckpt):
        """A save renames a new file over the old one, and the mapping keeps
        the old file's pages: a loaded store keeps its values."""
        path, store = ckpt
        loaded = load_checkpoint(str(path), CFG, VOCAB)
        save_checkpoint(str(path), init_store(CFG, VOCAB, seed=4), CFG, VOCAB)
        for name, t in store.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
        path.unlink()
        for name, t in store.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)

    def test_manifest_line_is_padded_to_the_alignment(self, tmp_path):
        """Whatever the manifest's length mod ALIGN, its line, newline
        included, is a multiple of ALIGN bytes, with fewer than ALIGN spaces
        after the JSON, and it parses as the manifest."""
        path = tmp_path / "model.ckpt"
        for name_length in range(1, ALIGN + 1):
            vocab = Vocab(objects=("a" * name_length, "b"), predicates=("p", "q"))
            save_checkpoint(str(path), init_store(CFG, vocab, seed=3), CFG, vocab)
            line = path.read_bytes().partition(b"\n")[0] + b"\n"
            manifest = json.loads(line)
            assert manifest == {"format": FORMAT, "model": dataclasses.asdict(CFG),
                                "vocab": {"objects": list(vocab.objects),
                                          "predicates": ["p", "q"]}}
            assert len(line) % ALIGN == 0
            assert line.rstrip(b" \n") + b"\n" == canonical_json(manifest).encode()
            assert len(line) - len(canonical_json(manifest)) < ALIGN

    @settings(max_examples=30, deadline=None)
    @given(small_configs(), st.integers(0, 2**16))
    def test_forward_bits_equal_those_of_a_copied_blob(self, toy_dataset, cfg, seed):
        """The mapped store and a store over an ``np.fromfile`` copy of the
        same blob give the same forward bits."""
        samples, vocab = toy_dataset
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.ckpt")
            save_checkpoint(path, init_store(cfg, vocab, seed=seed), cfg, vocab)
            mapped = RelationModel(cfg, vocab, load_checkpoint(path, cfg, vocab))
            copied = RelationModel(cfg, vocab, copied_store(path, cfg, vocab))
        for sample in samples[:2]:
            a = mapped.forward(mapped.build_context(sample))
            b = copied.forward(copied.build_context(sample))
            assert a.probs.data.tobytes() == b.probs.data.tobytes()
            assert a.attention.data.tobytes() == b.attention.data.tobytes()

    def test_save_is_byte_deterministic(self, ckpt, tmp_path):
        path, store = ckpt
        again = tmp_path / "again.ckpt"
        save_checkpoint(str(again), store, CFG, VOCAB)
        assert again.read_bytes() == path.read_bytes()


class TestErrors:
    def test_wrong_format_rejected(self, ckpt):
        path, _ = ckpt
        rewrite_manifest(path, lambda m: {**m, "format": "other/9"})
        with pytest.raises(CheckpointError, match="format 'other/9'"):
            load_checkpoint(str(path), CFG, VOCAB)

    def test_format_1_asks_for_retraining(self, ckpt):
        path, _ = ckpt
        rewrite_manifest(path, lambda m: {**m, "format": "relformer-ckpt/1"})
        with pytest.raises(CheckpointError, match="relformer-ckpt/1.*retrain"):
            load_checkpoint(str(path), CFG, VOCAB)

    def test_format_2_asks_for_retraining(self, ckpt):
        """A format-2 file holds a float64 blob: its manifest is refused
        before the blob is read."""
        path, store = ckpt
        header = path.read_bytes().partition(b"\n")[0]
        manifest = {**json.loads(header), "format": "relformer-ckpt/2"}
        blob = np.concatenate([t.data.ravel() for _, t in store.items()]).astype("<f8")
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob.tobytes())
        with pytest.raises(CheckpointError,
                           match="'relformer-ckpt/2' is no longer read; retrain"):
            load_checkpoint(str(path), CFG, VOCAB)

    def test_format_3_asks_for_retraining(self, ckpt):
        """A format-3 file is a float32 blob after an unpadded manifest."""
        path, _ = ckpt
        header, _, blob = path.read_bytes().partition(b"\n")
        path.write_bytes(header.rstrip(b" ").replace(FORMAT.encode(), b"relformer-ckpt/3")
                         + b"\n" + blob)
        with pytest.raises(CheckpointError,
                           match="'relformer-ckpt/3' is no longer read; retrain"):
            load_checkpoint(str(path), CFG, VOCAB)

    def test_unpadded_manifest_under_the_current_format_rejected(self, ckpt, mmap_calls):
        """A blob that does not start on an ALIGN-byte boundary is refused
        before the file is mapped."""
        path, _ = ckpt
        rewrite_manifest(path, lambda m: m)
        size = len(path.read_bytes().partition(b"\n")[0]) + 1
        assert size % ALIGN
        with pytest.raises(CheckpointError, match=f"manifest line is {size} bytes, so the "
                                                  f"blob does not start on a {ALIGN}-byte"):
            load_checkpoint(str(path), CFG, VOCAB)
        assert mmap_calls == []

    def test_float64_blob_under_the_current_format_rejected(self, ckpt):
        """A blob of 8 bytes per parameter is twice the float32 size."""
        path, store = ckpt
        header = path.read_bytes().partition(b"\n")[0]
        blob = np.concatenate([t.data.ravel() for _, t in store.items()]).astype("<f8")
        path.write_bytes(header + b"\n" + blob.tobytes())
        count = blob.size
        with pytest.raises(CheckpointError, match=f"blob has {8 * count} bytes, but the "
                                                  f"model's {count} float32 values take "
                                                  f"{4 * count}$"):
            load_checkpoint(str(path), CFG, VOCAB)

    def test_truncated_blob_rejected(self, ckpt):
        path, _ = ckpt
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        size = len(raw.partition(b"\n")[2])
        with pytest.raises(CheckpointError, match=f"blob has {size - 8} bytes.* {size}$"):
            load_checkpoint(str(path), CFG, VOCAB)

    @pytest.mark.parametrize("delta", [-1, 1, 3, 4, 7, 8])
    def test_blob_of_any_other_length_rejected(self, ckpt, delta, mmap_calls):
        """The size is checked before the file is mapped: a mapping past the
        end of a short file would fault on its last page instead of raising."""
        path, _ = ckpt
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
        size = len(raw.partition(b"\n")[2])
        with pytest.raises(CheckpointError, match=f"blob has {size + delta} bytes"):
            load_checkpoint(str(path), CFG, VOCAB)
        assert mmap_calls == []

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format":"relformer-ckpt/4"}')
        with pytest.raises(CheckpointError, match="separator"):
            load_checkpoint(str(path), CFG, VOCAB)

    @pytest.mark.parametrize("header,message", [
        (b'[1, 2]', "not an object"),
        (b'{"format":', "malformed manifest"),
        (b'{"format":"\xff"}', "malformed manifest")],
        ids=["not_an_object", "not_json", "not_utf8"])
    def test_malformed_manifest_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + b"\n" + bytes(8))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path), CFG, VOCAB)

    @pytest.mark.parametrize("section", ["model", "vocab"])
    def test_missing_section_rejected(self, ckpt, section):
        path, _ = ckpt
        rewrite_manifest(path, lambda m: {k: v for k, v in m.items() if k != section})
        with pytest.raises(CheckpointError, match=f"no {section} section"):
            load_checkpoint(str(path), CFG, VOCAB)

    def test_incompatible_shapes_detected(self, ckpt):
        """A run whose config gives other tensor shapes names the first
        differing model field with both values."""
        path, _ = ckpt
        with pytest.raises(CheckpointError, match="model.d_w=2, but the run has model.d_w=4"):
            load_checkpoint(str(path), dataclasses.replace(CFG, d_w=4), VOCAB)

    def test_same_shapes_under_another_config_rejected(self, ckpt):
        """``heads`` changes no shape, but the model it runs."""
        path, _ = ckpt
        other = dataclasses.replace(CFG, heads=2)
        with pytest.raises(CheckpointError, match="model.heads=1, but the run has model.heads=2"):
            load_checkpoint(str(path), other, VOCAB)

    @pytest.mark.parametrize("vocab,field", [
        (Vocab(objects=("a", "b"), predicates=("q", "p")), "predicates"),
        (Vocab(objects=("a", "b", "c"), predicates=("p", "q")), "objects")],
        ids=["permuted_predicates", "extra_object"])
    def test_other_vocab_rejected(self, ckpt, vocab, field):
        path, _ = ckpt
        saved, run = list(getattr(VOCAB, field)), list(getattr(vocab, field))
        message = f"vocab.{field}={saved!r}, but the run has vocab.{field}={run!r}"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(str(path), CFG, vocab)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"), CFG, VOCAB)
