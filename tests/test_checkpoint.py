import dataclasses
import json
import re

import numpy as np
import pytest

from relformer.checkpoint import FORMAT, load_checkpoint, save_checkpoint
from relformer.config import ModelConfig
from relformer.data import Vocab
from relformer.errors import CheckpointError
from relformer.model import init_store, param_shapes

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
    """Replace the manifest by ``edit(manifest)``, keeping the blob as it is."""
    header, _, blob = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + blob)


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

    def test_loaded_tensors_are_writable_views_of_one_array(self, ckpt):
        path, store = ckpt
        loaded = load_checkpoint(str(path), CFG, VOCAB)
        first = store.names()[0]
        blob = loaded[first].data.base
        assert blob is not None and blob.size == sum(t.data.size for _, t in store.items())
        assert all(t.data.base is blob for _, t in loaded.items())
        assert all(t.data.flags.writeable and not t.requires_grad
                   for _, t in loaded.items())
        loaded[first].data.flat[0] = 123.0
        assert blob[0] == 123.0

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
    def test_blob_of_any_other_length_rejected(self, ckpt, delta):
        """``np.fromfile`` would drop 1-3 trailing bytes without a word."""
        path, _ = ckpt
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
        size = len(raw.partition(b"\n")[2])
        with pytest.raises(CheckpointError, match=f"blob has {size + delta} bytes"):
            load_checkpoint(str(path), CFG, VOCAB)

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format":"relformer-ckpt/3"}')
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
