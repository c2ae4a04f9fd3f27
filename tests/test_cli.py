import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relformer import cli
from relformer import model as model_module
from relformer import nn, training
from relformer.checkpoint import load_checkpoint
from relformer.cli import _load_model, main
from relformer.config import load_config
from relformer.data import (MAX_FRAME_COUNT, GtObject, GtRelation, TimeSlot, Tracklet,
                            VideoSample, Vocab)
from relformer.dataset_io import canonical_json, load_dataset, save_dataset, write_feature_file
from relformer.head import RelationTriplet, infer_triplets
from relformer.metrics import evaluate
from relformer.model import RelationModel
from relformer.synth import PREDICATE_RULES


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestSeedValidation:
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_flag_seed_exits_2(self, tmp_path, capsys, command):
        extra = ["--data", str(tmp_path / "data")] if command == "train" else []
        code = main([command, "--seed", "-1", "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,field", [
        ({"seed": -3}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": 1.5}, "seed"),
    ])
    def test_bad_config_seed_exits_2(self, tmp_path, capsys, payload, field):
        cfg = write_config(tmp_path, payload)
        code = main(["train", "--config", cfg, "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{field}: must be a non-negative integer" in capsys.readouterr().err

    def test_zero_seed_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 0,
                                      "synth": {"videos": 1, "frame_count": 12,
                                                "d_a": 4, "objects_min": 2,
                                                "objects_max": 2, "distractors": 0}})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 0


TINY = {"seed": 5,
        "synth": {"videos": 4, "frame_count": 12, "d_a": 4, "object_categories": 3,
                  "objects_min": 2, "objects_max": 3, "distractors": 1,
                  "max_relations": 4},
        "model": {"d": 8, "d_q": 8, "d_v": 8, "d_a": 4, "d_w": 4, "l": 2, "l_roi": 3,
                  "L_e": 1, "L_d": 1, "m_c": 4, "m_d": 2, "heads": 2, "mlp_hidden": 8},
        "train": {"epochs": 2, "batch_size": 2, "lr": 1e-3}}


# The exact manifest line of every TINY checkpoint, without its newline: 272
# bytes of JSON and 47 spaces, so that the blob starts at byte 320 = 5 * 64.
TINY_HEADER = (
    b'{"format":"relformer-ckpt/4","model":{"L_d":1,"L_e":1,"d":8,"d_a":4,"d_q":8,'
    b'"d_v":8,"d_w":4,"heads":2,"l":2,"l_roi":3,"m_c":4,"m_d":2,"mlp_hidden":8},'
    b'"vocab":{"objects":["person","dog","cat"],"predicates":["approaching",'
    b'"moving-away","above","beneath","faster","bigger"]}}' + b" " * 47)


def blob_digest(path) -> str:
    """sha256 of the blob, after checking the manifest is TINY_HEADER."""
    header, _, blob = path.read_bytes().partition(b"\n")
    assert header == TINY_HEADER
    return hashlib.sha256(blob).hexdigest()


def write_format_1(path, tiny_run, extra: dict) -> None:
    """A format-1 checkpoint of the trained TINY model plus ``extra`` tensors:
    a model echo and a per-tensor table, no vocab."""
    root, cfg, data = tiny_run
    store = load_checkpoint(str(root / "run1" / "model.ckpt"), load_config(cfg).model,
                            load_dataset(data)[1])
    tensors = {**{name: t.data for name, t in store.items()}, **extra}
    entries, offset = [], 0
    for name in sorted(tensors):
        entries.append({"name": name, "shape": list(tensors[name].shape), "dtype": "<f8",
                        "byte_offset": offset, "trainable": not name.startswith("tables.")})
        offset += tensors[name].nbytes
    manifest = {"format": "relformer-ckpt/1", "model": TINY["model"], "tensors": entries}
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + b"".join(
        tensors[name].astype("<f8").tobytes() for name in sorted(tensors)))


def to_layout_without_box_files(doc, data) -> None:
    """Rewrite ``doc`` as datasets were written before the box files: each
    entry's boxes as a JSON list, each tracklet's first feature row as a
    reference. Then delete every ``.trkb`` file of ``data``."""
    sample, = (s for s in load_dataset(str(data))[0] if s.video_id == doc["video_id"])
    stem, row = f"video_{sample.video_id}", 0
    for entry, t in zip(doc["tracklets"], sample.tracklets):
        entry.update(boxes=t.boxes.tolist(), features=f"{stem}.trkf#{row}")
        row += t.length
    for entry, g in zip(doc["gt_objects"], sample.gt_objects):
        entry["boxes"] = g.boxes.tolist()
    for path in data.glob("video_*.trkb"):
        path.unlink()


def eval_exit_code(tiny_run, ckpt, out) -> int:
    root, cfg, data = tiny_run
    return main(["eval", "--config", cfg, "--data", data, "--ckpt", str(ckpt),
                 "--out", str(out)])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A synthesized tiny dataset, its config, and one trained checkpoint."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = write_config(root, TINY)
    data = str(root / "data")
    assert main(["synth", "--config", cfg, "--out", data]) == 0
    assert main(["train", "--config", cfg, "--data", data, "--out", str(root / "run1"),
                 "--quiet"]) == 0
    return root, cfg, data


class TestDeterminism:
    def test_train_twice_writes_identical_bytes(self, tiny_run):
        root, cfg, data = tiny_run
        assert main(["train", "--config", cfg, "--data", data, "--out", str(root / "run2"),
                     "--quiet"]) == 0
        for name in ("model.ckpt", "loss_trace.csv"):
            assert (root / "run1" / name).read_bytes() == (root / "run2" / name).read_bytes()

    def test_eval_report_is_independent_of_threads(self, tiny_run):
        root, cfg, data = tiny_run
        ckpt = str(root / "run1" / "model.ckpt")
        reports = []
        for threads in ("1", "2"):
            out = root / f"report{threads}.json"
            assert main(["eval", "--config", cfg, "--data", data, "--ckpt", ckpt,
                         "--threads", threads, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b"reldet_map" in reports[0]


    def test_interval_checkpoints_equal_the_shorter_runs(self, tiny_run):
        """--save-interval 1 over 3 epochs writes epochs 1 and 2 (the last
        epoch is model.ckpt), and epoch 2's file is the 2-epoch run's bytes."""
        root, cfg, data = tiny_run
        out = root / "interval"
        assert main(["train", "--config", cfg, "--data", data, "--out", str(out),
                     "--epochs", "3", "--save-interval", "1", "--quiet"]) == 0
        assert sorted(p.name for p in out.glob("model*.ckpt")) == [
            "model.ckpt", "model_epoch0001.ckpt", "model_epoch0002.ckpt"]
        assert (out / "model_epoch0002.ckpt").read_bytes() == (
            root / "run1" / "model.ckpt").read_bytes()

    def test_untrained_checkpoint_bytes_are_pinned(self, tiny_run):
        """The initial weights, hence the draw order of the initialiser, are
        part of the output contract: a seed names one model."""
        root, cfg, data = tiny_run
        assert main(["train", "--config", cfg, "--data", data, "--out",
                     str(root / "epochs0"), "--epochs", "0", "--quiet"]) == 0
        digest = blob_digest(root / "epochs0" / "model.ckpt")
        assert digest == "26dc86cdcb170b9343c6b6bca0a5a566a5b14acee168577ee626783550eefe03"

    def test_trained_checkpoint_bytes_are_pinned(self, tiny_run):
        """Two epochs of training from the pinned initial weights: matching,
        loss, backward and Adam all leave their bits in these bytes."""
        root, _, _ = tiny_run
        digest = blob_digest(root / "run1" / "model.ckpt")
        assert digest == "d24097f1ce56eaf3ea2ebab5d638da9728878e73c42c42bf4efa013b6593a5bb"

    def test_ragged_last_batch_bytes_are_pinned(self, tiny_run):
        """Four videos at batch 3: a step of three videos and one of one. The
        pins are the bytes of one backward of each step's mean loss, which a
        backward per video with carried gradient sums must reproduce."""
        root, _, data = tiny_run
        (root / "ragged").mkdir()
        cfg = write_config(root / "ragged", {**TINY, "train": {**TINY["train"], "batch_size": 3}})
        out = root / "ragged" / "run"
        assert main(["train", "--config", cfg, "--data", data, "--out", str(out),
                     "--quiet"]) == 0
        assert blob_digest(out / "model.ckpt") == (
            "11ee977f2a2ba02c788da22ea3e494e2b55a41756c3062c89fe020c2f3d8b21b")
        assert hashlib.sha256((out / "loss_trace.csv").read_bytes()).hexdigest() == (
            "51785f7ea04fafc0e8e1287f7d8ddbfab9b240f539133f61ab78073823930048")

    def test_untrained_forward_outputs_are_pinned(self, tiny_run):
        """eval and infer of the pinned untrained checkpoint: the forward pass
        and the ranking leave their bits in these bytes. Every TINY video has
        anchors that share a pooling row, so the value MLP runs on fewer rows
        than there are (query, tracklet) pairs and the gather fans them out."""
        root, cfg, data = tiny_run
        work = root / "forward_pins"
        ckpt = work / "run" / "model.ckpt"
        assert main(["train", "--config", cfg, "--data", data, "--out", str(work / "run"),
                     "--epochs", "0", "--quiet"]) == 0
        assert blob_digest(ckpt) == (
            "26dc86cdcb170b9343c6b6bca0a5a566a5b14acee168577ee626783550eefe03")
        assert main(["eval", "--config", cfg, "--data", data, "--ckpt", str(ckpt),
                     "--out", str(work / "report.json"),
                     "--per-video", str(work / "per_video.csv")]) == 0
        assert main(["infer", "--config", cfg, "--data", data, "--ckpt", str(ckpt),
                     "--out", str(work / "preds")]) == 0
        preds = b"".join(p.read_bytes() for p in sorted((work / "preds").iterdir()))
        digests = [hashlib.sha256(b).hexdigest() for b in (
            (work / "report.json").read_bytes(), (work / "per_video.csv").read_bytes(),
            preds)]
        assert digests == [
            "3f999aa9714c88a72efdde6451646233da4f2c5029a2b6d6adf0d0b08d49f8ba",
            "d212ba7b13af076198d9d1d760622a172cab953d07c1ee2af6141dd3080888cf",
            "c4c5f2b85c6202bf4f7e998aaeb498b22fdc5e5ec5f6a68449684f63e9adec7e"]

        samples, vocab = load_dataset(data)
        model = _load_model(str(ckpt), load_config(cfg), vocab)
        for sample in samples:
            ctx = model.build_context(sample)
            model.forward(ctx)
            rows = sum(len(w) for w in ctx.pool_rows)
            assert rows < len(model.anchors) * len(ctx.spans)
            assert ctx.pool_index.max() == rows - 1

    def test_eval_and_infer_draw_no_initial_weights(self, tiny_run, monkeypatch):
        """Loading checks the checkpoint against the tensor list alone; the
        outputs are those of a run where the initialiser may be called."""
        root, cfg, data = tiny_run
        ckpt = str(root / "run1" / "model.ckpt")

        def run(tag):
            assert main(["eval", "--config", cfg, "--data", data, "--ckpt", ckpt,
                         "--out", str(root / f"{tag}.json")]) == 0
            assert main(["infer", "--config", cfg, "--data", data, "--ckpt", ckpt,
                         "--out", str(root / f"{tag}_preds")]) == 0
            preds = sorted((root / f"{tag}_preds").iterdir())
            return [(root / f"{tag}.json").read_bytes()] + [
                (p.name, p.read_bytes()) for p in preds]

        before = run("allowed")

        def refuse(*args, **kwargs):
            raise AssertionError("eval/infer must not initialise parameters")

        monkeypatch.setattr(nn, "init_params", refuse)
        monkeypatch.setattr(model_module, "init_params", refuse)
        assert run("refused") == before


class TestCheckpointCompatibility:
    def test_checkpoint_with_slot_offset_tensors_exits_3(self, tiny_run, capsys):
        """Checkpoints written while the decoder still had slot-offset MLPs
        are format-1 files; eval asks for retraining and exits 3."""
        root = tiny_run[0]
        hidden, d_q = TINY["model"]["mlp_hidden"], TINY["model"]["d_q"]
        old = root / "old.ckpt"
        write_format_1(old, tiny_run, {
            f"decoder.layer0.offset.{name}": np.zeros(shape)
            for name, shape in (("w1", (d_q, hidden)), ("b1", (hidden,)),
                                ("w2", (hidden, 2)), ("b2", (2,)))})
        capsys.readouterr()
        assert eval_exit_code(tiny_run, old, root / "old_report.json") == 3
        err = capsys.readouterr().err
        assert "'relformer-ckpt/1' is no longer read" in err
        assert "retrain" in err
        assert not (root / "old_report.json").exists()

    def test_format_3_checkpoint_exits_3(self, tiny_run, capsys):
        """A format-3 file is the same blob after an unpadded manifest, so it
        may start anywhere; eval asks for retraining and exits 3."""
        root = tiny_run[0]
        header, _, blob = (root / "run1" / "model.ckpt").read_bytes().partition(b"\n")
        old = root / "format3.ckpt"
        old.write_bytes(header.rstrip(b" ").replace(b"relformer-ckpt/4", b"relformer-ckpt/3")
                        + b"\n" + blob)
        capsys.readouterr()
        assert eval_exit_code(tiny_run, old, root / "format3_report.json") == 3
        err = capsys.readouterr().err
        assert "'relformer-ckpt/3' is no longer read; retrain" in err
        assert not (root / "format3_report.json").exists()

    def test_checkpoint_with_attention_key_bias_exits_3(self, tiny_run, capsys):
        """Checkpoints written while attention still had a key bias are
        format-1 files too."""
        root = tiny_run[0]
        old = root / "old_bk.ckpt"
        write_format_1(old, tiny_run, {"encoder.layer0.attn.bk": np.zeros(TINY["model"]["d"])})
        capsys.readouterr()
        assert eval_exit_code(tiny_run, old, root / "old_bk_report.json") == 3
        assert "retrain" in capsys.readouterr().err
        assert not (root / "old_bk_report.json").exists()

    def test_dataset_with_permuted_predicates_exits_3(self, tiny_run, capsys):
        """Predicate ids are positions in the vocab: under another order they
        would silently name other predicates."""
        root, _, _ = tiny_run
        other = root / "permuted"
        other.mkdir()
        rules = list(reversed(PREDICATE_RULES))
        cfg = write_config(other, {**TINY, "synth": {**TINY["synth"], "rules": rules}})
        assert main(["synth", "--config", cfg, "--out", str(other / "data")]) == 0
        capsys.readouterr()
        for command, out in (("eval", other / "report.json"), ("infer", other / "preds")):
            code = main([command, "--config", cfg, "--data", str(other / "data"), "--ckpt",
                         str(root / "run1" / "model.ckpt"), "--out", str(out)])
            assert code == 3
            err = capsys.readouterr().err
            assert f"vocab.predicates={list(PREDICATE_RULES)!r}" in err
            assert f"vocab.predicates={rules!r}" in err
            assert not out.exists()

    @pytest.mark.parametrize("change,key", [({"heads": 4}, "heads"),
                                            ({"m_c": 2, "m_d": 4}, "m_c")],
                             ids=["heads", "grid"])
    def test_model_config_differing_from_the_echo_exits_3(self, tiny_run, capsys,
                                                          change, key):
        """A checkpoint runs only under the model config it was trained with,
        even where the tensor shapes would allow another one."""
        root, _, data = tiny_run
        other = root / f"other_{key}"
        other.mkdir()
        cfg = write_config(other, {**TINY, "model": {**TINY["model"], **change}})
        capsys.readouterr()
        for command, out in (("eval", other / "report.json"), ("infer", other / "preds")):
            code = main([command, "--config", cfg, "--data", data, "--ckpt",
                         str(root / "run1" / "model.ckpt"), "--out", str(out)])
            assert code == 3
            err = capsys.readouterr().err
            assert f"model.{key}={TINY['model'][key]!r}" in err
            assert f"model.{key}={change[key]!r}" in err
            assert not out.exists()

    def test_checkpoint_without_model_echo_exits_3(self, tiny_run, capsys):
        root = tiny_run[0]
        header, _, blob = (root / "run1" / "model.ckpt").read_bytes().partition(b"\n")
        manifest = json.loads(header)
        del manifest["model"]
        bare = root / "bare.ckpt"
        bare.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        capsys.readouterr()
        assert eval_exit_code(tiny_run, bare, root / "bare_report.json") == 3
        assert "no model section" in capsys.readouterr().err
        assert not (root / "bare_report.json").exists()


class TestExitCodes:
    def test_missing_dataset_is_a_data_error_exit_3(self, tiny_run, capsys):
        root, cfg, _ = tiny_run
        code = main(["eval", "--config", cfg, "--data", str(root / "no_such_data"),
                     "--ckpt", str(root / "run1" / "model.ckpt"),
                     "--out", str(root / "missing_report.json")])
        assert code == 3
        assert "vocab.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_2(self, tiny_run, capsys, command, threads):
        root, cfg, data = tiny_run
        out = root / f"threads_{command}_{threads}"
        code = main([command, "--config", cfg, "--data", data, "--ckpt",
                     str(root / "run1" / "model.ckpt"), "--threads", threads,
                     "--out", str(out)])
        assert code == 2
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,payload", [
        ("synth", {"synth": {"videos": 2.0}}), ("train", {"model": {"heads": True}})])
    def test_non_integer_config_field_exits_2(self, tmp_path, capsys, command, payload):
        extra = ["--data", str(tmp_path / "data")] if command == "train" else []
        cfg = write_config(tmp_path, payload)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,message", [
        ({"train": {"lr": True}}, "train.lr must be a number, got True"),
        ({"synth": {"box_jitter": "1e-3"}}, "synth.box_jitter must be a number, got '1e-3'")])
    def test_non_number_config_field_exits_2(self, tmp_path, capsys, payload, message):
        cfg = write_config(tmp_path, payload)
        code = main(["train", "--config", cfg, "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_flag_exits_2(self, tiny_run, capsys, value):
        """argparse reads ``nan`` and ``inf`` as floats; the config refuses
        them before any data is read."""
        root, cfg, data = tiny_run
        out = root / f"lr_{value}"
        code = main(["train", "--config", cfg, "--data", data, "--out", str(out),
                     "--lr", value, "--quiet"])
        assert code == 2
        assert f"train.lr must be a finite number >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_checkpoint_exits_3(self, tiny_run, capsys):
        root = tiny_run[0]
        raw = (root / "run1" / "model.ckpt").read_bytes()
        cut = root / "truncated.ckpt"
        cut.write_bytes(raw[:-8])
        assert eval_exit_code(tiny_run, cut, root / "truncated_report.json") == 3
        assert "blob has" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [1, 7, 8])
    def test_overlong_checkpoint_exits_3(self, tiny_run, capsys, extra):
        root = tiny_run[0]
        raw = (root / "run1" / "model.ckpt").read_bytes()
        long = root / f"long{extra}.ckpt"
        long.write_bytes(raw + bytes(extra))
        out = root / f"long{extra}_report.json"
        assert eval_exit_code(tiny_run, long, out) == 3
        size = len(raw.partition(b"\n")[2])
        assert f"blob has {size + extra} bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda manifest: [1, 2], "malformed manifest"),
        (lambda manifest: {k: v for k, v in manifest.items() if k != "vocab"},
         "no vocab section"),
    ], ids=["not_an_object", "no_vocab"])
    def test_malformed_manifest_exits_3(self, tiny_run, capsys, edit, message):
        root = tiny_run[0]
        header, _, blob = (root / "run1" / "model.ckpt").read_bytes().partition(b"\n")
        bad = root / "bad_manifest.ckpt"
        bad.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + blob)
        assert eval_exit_code(tiny_run, bad, root / "bad_manifest_report.json") == 3
        assert message in capsys.readouterr().err

    def test_wrong_checkpoint_format_exits_3(self, tiny_run, capsys):
        root, cfg, data = tiny_run
        raw = (root / "run1" / "model.ckpt").read_bytes()
        header, _, blob = raw.partition(b"\n")
        manifest = json.loads(header)
        manifest["format"] = "relformer-ckpt/0"
        wrong = root / "wrong_format.ckpt"
        wrong.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        code = main(["infer", "--config", cfg, "--data", data, "--ckpt", str(wrong),
                     "--out", str(root / "wrong_preds")])
        assert code == 3
        assert "relformer-ckpt/0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exits_4(self, tiny_run, capsys):
        root, cfg, data = tiny_run
        code = main(["train", "--config", cfg, "--data", data, "--out",
                     str(root / "diverged"), "--lr", "1e300", "--quiet"])
        assert code == 4
        assert "finite" in capsys.readouterr().err


    @pytest.mark.parametrize("case", ["heads", "empty_video", "too_many_relations",
                                      "no_checkpoint"])
    def test_inputs_checked_once_keep_their_exit_codes(self, tiny_run, capsys, case):
        """Each of these inputs is rejected by one owner, before any layer
        below could see it: the config (2), build_context (3),
        build_gt_predicates (3) and the --ckpt parser (2)."""
        root, cfg, data = tiny_run
        work = root / f"once_{case}"
        work.mkdir()
        if case == "heads":
            cfg = write_config(work, {**TINY, "model": {**TINY["model"], "heads": 3}})
            code, message = 2, "not divisible by model.heads=3"
        elif case == "empty_video":
            samples, vocab = load_dataset(data)
            samples[0] = dataclasses.replace(samples[0], tracklets=())
            data = str(work / "data")
            save_dataset(data, samples, vocab)
            code, message = 3, f"video {samples[0].video_id}: no tracklets"
        elif case == "too_many_relations":
            cfg = write_config(work, {**TINY, "model": {**TINY["model"], "m_c": 1, "m_d": 1}})
            code, message = 3, "exceed the 1 predicate queries"
        else:
            code, message = 2, "no checkpoint paths"
        command = ["train", "--config", cfg, "--data", data, "--out", str(work / "run"),
                   "--quiet"]
        if case == "no_checkpoint":
            command = ["eval", "--config", cfg, "--data", data, "--ckpt", ",",
                       "--out", str(work / "report.json")]
        capsys.readouterr()
        assert main(command) == code
        assert message in capsys.readouterr().err
        assert not (work / "run").exists()  # no --out left behind, not even empty
        assert not (work / "report.json").exists()

    @pytest.mark.parametrize("command", ["eval", "infer", "train", "train_embeddings"])
    def test_non_finite_feature_value_exits_3_naming_the_file(self, tiny_run, capsys,
                                                              command):
        """A NaN in a TRKF file is refused where the file is read: a dataset's
        ``.trkf`` file, or the ``train --embeddings`` table."""
        root, cfg, data = tiny_run
        work = root / f"nan_{command}"
        work.mkdir()
        out = work / "out"
        if command == "train_embeddings":
            n_objects = len(load_dataset(data)[1].objects)
            table = np.zeros((n_objects, TINY["model"]["d_w"]), dtype=np.float32)
            table[1, 2] = np.nan
            bad = work / "table.trkf"
            write_feature_file(str(bad), table)
            args = ["train", "--epochs", "0", "--embeddings", str(bad), "--quiet"]
        else:
            shutil.copytree(data, work / "data")
            data = str(work / "data")
            bad = sorted((work / "data").glob("*.trkf"))[0]
            raw = bytearray(bad.read_bytes())
            raw[16:20] = np.array([np.nan], dtype="<f4").tobytes()
            bad.write_bytes(bytes(raw))
            args = [command] + (["--quiet"] if command == "train" else
                                ["--ckpt", str(root / "run1" / "model.ckpt")])
        capsys.readouterr()
        assert main(args + ["--config", cfg, "--data", data, "--out", str(out)]) == 3
        assert f"{bad}: feature values must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case,edit,message", [
        ("list_boxes", lambda doc, data: doc["tracklets"][0].update(
            boxes=[[0.1, 0.1, 0.2, 0.2]] * 2),
         "regenerate the dataset with relformer synth"),
        ("no_box_files", to_layout_without_box_files,
         "regenerate the dataset with relformer synth"),
        ("frame_count", lambda doc, data: doc.update(frame_count=10 ** 9),
         f"frame_count must lie in [2, {MAX_FRAME_COUNT}], got 1000000000"),
    ], ids=["list_boxes", "no_box_files", "frame_count"])
    def test_video_json_the_reader_refuses_exits_3_naming_the_file(self, tiny_run, capsys,
                                                                   case, edit, message):
        root, cfg, data = tiny_run
        work = root / f"refused_{case}"
        shutil.copytree(data, work / "data")
        video = sorted((work / "data").glob("video_*.json"))[0]
        doc = json.loads(video.read_text())
        edit(doc, work / "data")
        video.write_text(json.dumps(doc))
        out = work / "report.json"
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--data", str(work / "data"),
                     "--ckpt", str(root / "run1" / "model.ckpt"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{video.name}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_video_id_differing_from_its_file_name_exits_3(self, tiny_run, capsys, command):
        """Two videos with one id would write one predictions file and be
        scored against one prediction list; each id must be its file's."""
        root, cfg, data = tiny_run
        work = root / f"video_id_{command}"
        shutil.copytree(data, work / "data")
        first, second = sorted((work / "data").glob("video_*.json"))[:2]
        doc = json.loads(second.read_text())
        doc["video_id"] = json.loads(first.read_text())["video_id"]
        second.write_text(json.dumps(doc))
        out = work / "out"
        capsys.readouterr()
        assert main([command, "--config", cfg, "--data", str(work / "data"),
                     "--ckpt", str(root / "run1" / "model.ckpt"), "--out", str(out)]) == 3
        assert f"{second.name}: video_id " in capsys.readouterr().err
        assert not out.exists()

    def test_video_without_tracklets_predicts_nothing(self, tiny_run):
        root, cfg, data = tiny_run
        samples, vocab = load_dataset(data)
        samples[0] = dataclasses.replace(samples[0], tracklets=())
        save_dataset(str(root / "one_empty"), samples, vocab)
        out = root / "one_empty_preds"
        assert main(["infer", "--config", cfg, "--data", str(root / "one_empty"),
                     "--ckpt", str(root / "run1" / "model.ckpt"), "--out", str(out)]) == 0
        doc = json.loads((out / f"predictions_{samples[0].video_id}.json").read_text())
        assert doc["relations"] == []


class TestOutputPaths:
    @pytest.mark.parametrize("case", ["infer_out_is_a_file", "train_out_is_a_file",
                                      "synth_out_is_a_file", "eval_out_has_no_directory",
                                      "eval_per_video_has_no_directory",
                                      "eval_out_is_a_directory"])
    def test_unusable_output_path_exits_2_before_any_forward(
            self, tiny_run, capsys, monkeypatch, case):
        """Each path is refused with a UsageError naming the flag and the
        path, before a single forward pass runs, and nothing is written."""
        root, cfg, data = tiny_run
        work = root / f"paths_{case}"
        work.mkdir()
        ckpt = str(root / "run1" / "model.ckpt")
        command, flag = case.split("_")[:2]
        flag = "--per-video" if flag == "per" else "--out"
        existing = work / "existing"
        existing.write_text("keep")
        if case.endswith("is_a_file"):
            path = existing
        elif case.endswith("is_a_directory"):
            path = work
        else:
            path = work / "nodir" / ("x.csv" if flag == "--per-video" else "r.json")
        argv = {"synth": ["synth", "--config", cfg, "--out", str(path)],
                "train": ["train", "--config", cfg, "--data", data, "--out", str(path),
                          "--quiet"],
                "infer": ["infer", "--config", cfg, "--data", data, "--ckpt", ckpt,
                          "--out", str(path)],
                "eval": ["eval", "--config", cfg, "--data", data, "--ckpt", ckpt,
                         flag, str(path)]}[command]

        def refuse(*args, **kwargs):
            raise AssertionError("a forward pass ran before the output path check")

        monkeypatch.setattr(RelationModel, "forward", refuse)
        capsys.readouterr()
        assert main(argv) == 2
        assert f"{flag} {path}" in capsys.readouterr().err
        assert existing.read_text() == "keep"
        assert sorted(p.name for p in work.iterdir()) == ["existing"]


class TestSynthOutput:
    def synth(self, tmp_path, out, videos, seed, *extra) -> int:
        cfg = write_config(tmp_path, TINY)
        return main(["synth", "--config", cfg, "--out", str(out), "--videos", str(videos),
                     "--seed", str(seed), *extra])

    def test_force_leaves_exactly_the_new_dataset(self, tmp_path):
        """A forced synth over a larger dataset keeps none of its videos, and
        its files equal those of a synth into an empty directory."""
        forced, fresh = tmp_path / "forced", tmp_path / "fresh"
        assert self.synth(tmp_path, forced, 5, 1) == 0
        assert self.synth(tmp_path, forced, 3, 2, "--force") == 0
        assert self.synth(tmp_path, fresh, 3, 2) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in forced.iterdir()) == names
        for name in names:
            assert (forced / name).read_bytes() == (fresh / name).read_bytes(), name
        assert len(load_dataset(str(forced))[0]) == 3

    def test_frames_above_the_video_bound_exit_2(self, tmp_path, capsys):
        out = tmp_path / "data"
        capsys.readouterr()
        assert self.synth(tmp_path, out, 1, 1, "--frames", str(MAX_FRAME_COUNT + 1)) == 2
        assert "synth.frame_count must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_non_empty_directory_without_force_exits_2_and_changes_nothing(
            self, tmp_path, capsys):
        out = tmp_path / "data"
        assert self.synth(tmp_path, out, 2, 1) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert self.synth(tmp_path, out, 3, 2) == 2
        assert "output directory not empty (pass --force)" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestInferOutput:
    def test_rerun_into_one_directory_leaves_only_its_own_predictions(self, tiny_run):
        """infer of the 4-video TINY set, then of a 2-video set into the same
        --out, leaves the files of a fresh 2-video run and any other file."""
        root, cfg, data = tiny_run
        small = root / "infer_small"
        assert main(["synth", "--config", cfg, "--out", str(small / "data"),
                     "--videos", "2", "--seed", "6"]) == 0
        ckpt = str(root / "run1" / "model.ckpt")
        reused, fresh = small / "reused", small / "fresh"
        assert main(["infer", "--config", cfg, "--data", data, "--ckpt", ckpt,
                     "--out", str(reused)]) == 0
        assert len(list(reused.glob("predictions_*.json"))) == 4
        (reused / "notes.txt").write_text("kept")
        for out in (reused, fresh):
            assert main(["infer", "--config", cfg, "--data", str(small / "data"),
                         "--ckpt", ckpt, "--out", str(out)]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert len(names) == 2
        assert sorted(p.name for p in reused.iterdir()) == sorted(names + ["notes.txt"])
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        assert (reused / "notes.txt").read_text() == "kept"


class TestEvalSection:
    """Every command reads the config's ``eval`` section, the one source of
    the evaluation settings: no package function has a default for them."""

    # TINY's tracklets follow their GT objects closely, so a threshold of 0.3
    # gives the report of the default 0.5; one of 0.7 moves it.
    EVAL = {"viou_threshold": 0.7, "recall_ks": [5, 20], "precision_ks": [2],
            "top_k_per_query": 3}

    def test_train_eval_and_infer_use_a_non_default_section(self, tiny_run, monkeypatch):
        root, _, data = tiny_run
        base = root / "eval_section"
        base.mkdir()
        cfg = write_config(base, {**TINY, "eval": self.EVAL})
        thresholds = []
        assign = training.assign_tracklets_to_gt

        def recording(sample, threshold):
            thresholds.append(threshold)
            return assign(sample, threshold)

        monkeypatch.setattr(training, "assign_tracklets_to_gt", recording)
        assert main(["train", "--config", cfg, "--data", data, "--out", str(base / "run"),
                     "--quiet"]) == 0
        assert thresholds == [0.7] * TINY["synth"]["videos"]

        ckpt = str(base / "run" / "model.ckpt")
        assert main(["infer", "--config", cfg, "--data", data, "--ckpt", ckpt,
                     "--out", str(base / "preds")]) == 0
        assert main(["eval", "--config", cfg, "--data", data, "--ckpt", ckpt,
                     "--out", str(base / "report.json")]) == 0

        samples, vocab = load_dataset(data)
        model = _load_model(ckpt, load_config(cfg), vocab)
        predictions, cut = {}, False
        for sample in samples:
            doc = json.loads((base / "preds" / f"predictions_{sample.video_id}.json")
                             .read_text())
            preds = [RelationTriplet(r["subject_tid"], r["object_tid"], r["predicate"],
                                     r["score"], TimeSlot(r["start"], r["end"]))
                     for r in doc["relations"]]
            out = model.forward(model.build_context(sample))
            tracklets = list(sample.tracklets)
            assert preds == infer_triplets(out.probs.data, out.links, tracklets, 3)
            cut |= len(preds) < len(infer_triplets(out.probs.data, out.links, tracklets, 10))
            predictions[sample.video_id] = preds
        assert cut  # top_k_per_query 3 keeps fewer predictions than 10 would

        def report_at(viou_threshold):
            return json.loads(canonical_json(
                evaluate(predictions, samples, viou_threshold, (5, 20), (2,)).to_dict()))

        report = json.loads((base / "report.json").read_text())
        assert report == report_at(0.7)
        assert report != report_at(0.5)  # the threshold shows in the report
        assert {"recall@5", "recall@20", "p@2"} <= report.keys()
        assert not {"recall@50", "p@1"} & report.keys()


class TestFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_checkpoints_get_the_mode_of_the_loss_trace(self, tiny_run, umask):
        """Checkpoints are written through a temp file, yet end with the mode
        a plain ``open`` gives, as every other output does."""
        root, cfg, data = tiny_run
        out = root / f"modes_{umask:o}"
        old = os.umask(umask)
        try:
            assert main(["train", "--config", cfg, "--data", data, "--out", str(out),
                         "--save-interval", "1", "--quiet"]) == 0
        finally:
            os.umask(old)
        want = 0o666 & ~umask
        assert (out / "loss_trace.csv").stat().st_mode & 0o777 == want
        for name in ("model.ckpt", "model_epoch0001.ckpt"):
            assert (out / name).stat().st_mode & 0o777 == want, name


class TestEnsemble:
    def eval_bytes(self, tiny_run, ckpts, tag):
        root, cfg, data = tiny_run
        out, per_video = root / f"{tag}.json", root / f"{tag}.csv"
        assert main(["eval", "--config", cfg, "--data", data, "--ckpt", ckpts,
                     "--out", str(out), "--per-video", str(per_video)]) == 0
        return out.read_bytes(), per_video.read_bytes()

    def test_one_checkpoint_twice_equals_it_once(self, tiny_run):
        ckpt = str(tiny_run[0] / "run1" / "model.ckpt")
        assert self.eval_bytes(tiny_run, f"{ckpt},{ckpt}", "twice") == \
            self.eval_bytes(tiny_run, ckpt, "once")

    def test_two_checkpoints_keep_each_key_at_its_best_score(self, tiny_run, monkeypatch):
        """The untrained and the trained TINY model: the ensemble predicts
        the union of their (predicate, subject, object) keys, each at the
        higher of the two scores, so no video gets fewer predictions."""
        root, cfg, data = tiny_run
        assert main(["train", "--config", cfg, "--data", data, "--out",
                     str(root / "ensemble_epochs0"), "--epochs", "0", "--quiet"]) == 0
        evaluate = cli.evaluate
        seen = []

        def recording(predictions, *args):
            seen.append({vid: {t.key(): t.score for t in preds}
                         for vid, preds in predictions.items()})
            return evaluate(predictions, *args)

        monkeypatch.setattr(cli, "evaluate", recording)
        untrained = str(root / "ensemble_epochs0" / "model.ckpt")
        trained = str(root / "run1" / "model.ckpt")
        for ckpts in (untrained, trained, f"{untrained},{trained}"):
            self.eval_bytes(tiny_run, ckpts, "ensemble")
        a, b, both = seen
        for vid in both:
            assert both[vid] == {key: max(a[vid].get(key, 0.0), b[vid].get(key, 0.0))
                                 for key in a[vid].keys() | b[vid].keys()}
            assert len(both[vid]) >= max(len(a[vid]), len(b[vid]))
        assert any(len(both[vid]) > max(len(a[vid]), len(b[vid])) for vid in both)


class TestEmbeddings:
    """``train --embeddings FILE``: a TRKF table of one row per object
    category and d_w columns replaces the random classeme table."""

    def train(self, tiny_run, table, tag):
        root, cfg, data = tiny_run
        path = root / f"{tag}.trkf"
        write_feature_file(str(path), table)
        out = root / tag
        code = main(["train", "--config", cfg, "--data", data, "--out", str(out),
                     "--epochs", "0", "--embeddings", str(path), "--quiet"])
        return code, path, out

    def test_table_is_the_checkpoint_classeme_table(self, tiny_run):
        n_objects, d_w = len(load_dataset(tiny_run[2])[1].objects), TINY["model"]["d_w"]
        table = np.arange(n_objects * d_w, dtype=np.float32).reshape(n_objects, d_w) / 8
        code, _, out = self.train(tiny_run, table, "embedded")
        assert code == 0
        store = load_checkpoint(str(out / "model.ckpt"), load_config(tiny_run[1]).model,
                                load_dataset(tiny_run[2])[1])
        np.testing.assert_array_equal(store["tables.classeme"].data, table)

    def test_table_one_column_too_wide_exits_3(self, tiny_run, capsys):
        n_objects, d_w = len(load_dataset(tiny_run[2])[1].objects), TINY["model"]["d_w"]
        capsys.readouterr()
        code, path, out = self.train(tiny_run, np.zeros((n_objects, d_w + 1)), "too_wide")
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and "embedding table shape" in err
        assert not out.exists()


class TestGradClipping:
    def test_every_adam_step_sees_a_clipped_gradient(self, tiny_run, monkeypatch):
        """TINY's unclipped gradient norms are 22-46 over its 4 steps, so a
        bound of 10 clips every step."""
        root, _, data = tiny_run
        bound = 10.0
        norms = []

        class Recording(nn.Adam):
            def step(self, store, grads):
                norms.append(float(np.sqrt(sum(float((g * g).sum()) for g in grads))))
                super().step(store, grads)

        monkeypatch.setattr(training, "Adam", Recording)
        (root / "clipped").mkdir()
        cfg = write_config(root / "clipped",
                           {**TINY, "train": {**TINY["train"], "max_grad_norm": bound}})
        ckpts = []
        for run in ("a", "b"):
            out = root / "clipped" / run
            assert main(["train", "--config", cfg, "--data", data, "--out", str(out),
                         "--quiet"]) == 0
            ckpts.append((out / "model.ckpt").read_bytes())
        assert len(norms) == 8  # 2 epochs of 2 steps, twice
        # Each rescaled float32 entry is rounded, so the norm misses the bound
        # by up to float32's precision (3.8e-8 relative, measured).
        assert all(abs(norm - bound) <= np.finfo(np.float32).eps * bound for norm in norms)
        assert ckpts[0] == ckpts[1]
        assert ckpts[0] != (root / "run1" / "model.ckpt").read_bytes()


class TestFrozenLoad:
    def test_loaded_model_records_no_graph_and_matches_the_graph_forward(self, tiny_run):
        """eval/infer load every tensor frozen, so a forward builds no VJP
        closures, and its outputs are bitwise those of a graph-building
        forward with the same weights."""
        root, cfg, data = tiny_run
        ckpt = str(root / "run1" / "model.ckpt")
        samples, vocab = load_dataset(data)
        run_cfg = load_config(cfg)
        frozen = _load_model(ckpt, run_cfg, vocab)
        assert not any(t.requires_grad for _, t in frozen.store.items())
        store = nn.ParamStore()
        for name, t in frozen.store.items():
            store.add(name, t.data)
        tracking = RelationModel(run_cfg.model, vocab, store)
        sample = next(s for s in samples if s.tracklets)
        got = frozen.forward(frozen.build_context(sample))
        want = tracking.forward(tracking.build_context(sample))
        assert got.probs._edges == () and not got.probs.requires_grad
        assert want.probs._edges
        assert got.probs.data.tobytes() == want.probs.data.tobytes()
        assert got.attention.data.tobytes() == want.attention.data.tobytes()


# The first-run config and commands of the README's quick start.
README_TOY = {"model": {"d": 64, "d_q": 64, "d_v": 64, "d_a": 64, "d_w": 16,
                        "mlp_hidden": 64, "L_e": 2, "L_d": 2, "heads": 4},
              "synth": {"d_a": 64},
              "train": {"epochs": 5, "lr": 1e-3}}


class TestReadmeQuickStart:
    @pytest.mark.parametrize("seed", [5, 7])
    def test_synth_succeeds_at_the_readme_settings(self, tmp_path, seed):
        """The default scene size fits the default relation cap, so the
        README's synth command works for every seed."""
        cfg = write_config(tmp_path, README_TOY)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data"),
                     "--videos", "8", "--seed", str(seed)]) == 0


class TestTrackletEndingAnUlpAfterAnAnchorStart:
    """A 36-frame video with a tracklet on (0, 15/36): the 16x12 grid has an
    anchor that starts one float ulp below 15/36, so the slot intersection's
    first frame rounds to frame 15, one past the tracklet. The pooling clamps
    it into the tracklet, to frame 14."""

    def write_dataset(self, directory) -> None:
        rng = np.random.default_rng(3)
        frame_count, d_a = 36, TINY["model"]["d_a"]
        objects, tracklets = [], []
        for tid, (end, box) in enumerate(((15, [0.1, 0.1, 0.4, 0.4]),
                                          (36, [0.5, 0.5, 0.9, 0.9]))):
            slot, boxes = TimeSlot(0.0, end / frame_count), np.tile(box, (end, 1))
            objects.append(GtObject(id=tid, slot=slot, boxes=boxes, category=tid))
            tracklets.append(Tracklet(id=tid, slot=slot, boxes=boxes, category=tid,
                                      appearance=rng.normal(size=(end, d_a)),
                                      probs=np.eye(2)[tid]))
        relation = GtRelation(subject_gt_id=0, object_gt_id=1, predicate=0,
                              slot=TimeSlot(0.0, 15 / frame_count))
        sample = VideoSample(video_id="0000", frame_count=frame_count, tracklets=tracklets,
                             gt_objects=objects, gt_relations=[relation])
        save_dataset(str(directory), [sample], Vocab(("person", "dog"), ("above",)))

    def test_train_and_eval_run(self, tmp_path):
        self.write_dataset(tmp_path / "data")
        cfg = write_config(tmp_path, {**TINY, "model": {**TINY["model"], "m_c": 16,
                                                        "m_d": 12}})
        data = str(tmp_path / "data")
        assert main(["train", "--config", cfg, "--data", data, "--out",
                     str(tmp_path / "run"), "--epochs", "1", "--quiet"]) == 0
        assert main(["eval", "--config", cfg, "--data", data, "--ckpt",
                     str(tmp_path / "run" / "model.ckpt"),
                     "--out", str(tmp_path / "report.json")]) == 0


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """``main`` runs OpenBLAS on one thread. Without that, the README's toy
        model trained for one epoch on one 24-frame video writes another
        checkpoint and other predictions at OPENBLAS_NUM_THREADS=2 than at 1.
        The variable is read when numpy loads, so each run is a new process."""
        cfg = write_config(tmp_path, {"model": README_TOY["model"],
                                      "synth": {"d_a": 64, "frame_count": 24}})
        data = str(tmp_path / "data")
        src = str(Path(cli.__file__).resolve().parents[1])

        def run(threads, *args):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "relformer.cli", *args], env=env,
                           check=True, capture_output=True)

        run(1, "synth", "--config", cfg, "--out", data, "--videos", "1", "--seed", "5")
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            run(threads, "train", "--config", cfg, "--data", data, "--out", str(out / "run"),
                "--epochs", "1", "--quiet")
            run(threads, "infer", "--config", cfg, "--data", data, "--ckpt",
                str(out / "run" / "model.ckpt"), "--out", str(out / "preds"))
            outputs.append([(out / "run" / name).read_bytes()
                            for name in ("model.ckpt", "loss_trace.csv")]
                           + [p.read_bytes() for p in sorted((out / "preds").iterdir())])
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]
